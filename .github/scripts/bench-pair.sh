#!/usr/bin/env bash
# Paired end-to-end runs of two revisions on one workload:
#
#   bash .github/scripts/bench-pair.sh [--pairs 10] [--workload raw_rough] \
#       [--seed 1] [--seconds 20] BASE [CHANGE]
#   bash .github/scripts/bench-pair.sh --selftest
#
# Each side is checked out with `git worktree` under .bench_build/pair/ and
# its benchmark harness is built from its own tree (benchmark/go.mod
# replaces sage => ../), so each side measures its own code; benchmark/ is
# never edited, and a warning says when it differs between the sides. CHANGE
# defaults to HEAD. The pairs alternate child processes, BASE first on odd
# pairs, CHANGE first on even ones; each run is one harness invocation
# (`-workload W -seed S -seconds T -trace 0 -out FILE`) started in its side's
# checkout.
#
# The report is the markdown table EXPERIMENTS.md uses, one row per timed
# end-to-end metric: each side's median [q1, q3] (linear interpolation
# between order statistics), the ratio of the medians (CHANGE over BASE) with
# the range of the per-pair ratios, and the pairs CHANGE won out of N with
# the exact two-sided sign-test p-value (tied pairs left out). A last row says
# whether the fingerprint and every sim_* metric were the same in every run
# of both sides. The verdict line reads "unchanged" unless a metric moved in
# the same direction in enough pairs for p <= 0.05 and its medians lie
# further apart than BASE's interquartile range, or the outputs differ.
#
# --selftest checks the statistics against .github/scripts/testdata/
# bench-pair-stats.txt and runs nothing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
fixture="$here/testdata/bench-pair-stats.txt"

# stats reads "base change" pairs on stdin and prints, for a metric where
# $1 ("higher" or "lower") is better: base median q1 q3, change median q1
# q3, median ratio, min and max per-pair ratio, CHANGE's wins, the untied
# pairs, and the two-sided sign-test p-value.
stats() {
	awk -v better="$1" '
	function quant(a, n, p,    h, lo) {
		h = (n - 1) * p
		lo = int(h)
		if (lo + 1 >= n) return a[n - 1]
		return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function sortn(a, n,    i, j, t) {
		for (i = 1; i < n; i++)
			for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	{
		n = NR; b[n - 1] = $1; c[n - 1] = $2; r = $2 / $1
		if (n == 1 || r < rmin) rmin = r
		if (n == 1 || r > rmax) rmax = r
		if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++
		else if ($2 != $1) losses++
	}
	END {
		sortn(b, n); sortn(c, n)
		m = wins + losses
		k = wins < losses ? wins : losses
		# Exact two-sided sign test: twice the binomial tail at k, capped at 1.
		term = 1; tail = 0
		for (i = 0; i <= k; i++) {
			if (i > 0) term = term * (m - i + 1) / i
			tail += term
		}
		p = m == 0 ? 1 : 2 * tail / 2 ^ m
		if (p > 1) p = 1
		printf "%.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g %d %d %.6g\n",
			quant(b, n, 0.5), quant(b, n, 0.25), quant(b, n, 0.75),
			quant(c, n, 0.5), quant(c, n, 0.25), quant(c, n, 0.75),
			quant(c, n, 0.5) / quant(b, n, 0.5), rmin, rmax, wins, m, p
	}'
}

selftest() {
	local status=0 cases=0 name better base change want got
	while IFS='|' read -r name better base change want; do
		[[ -z "$name" || "$name" == \#* ]] && continue
		cases=$((cases + 1))
		got=$(paste -d' ' <(tr ',' '\n' <<<"$base") <(tr ',' '\n' <<<"$change") | stats "$better")
		if [ "$got" != "$want" ]; then
			echo "bench-pair selftest: $name: got \"$got\", want \"$want\""
			status=1
		fi
	done <"$fixture"
	if [ "$cases" -eq 0 ]; then
		echo "bench-pair selftest: no cases in $fixture"
		exit 1
	fi
	[ "$status" -eq 0 ] && echo "bench-pair selftest: $cases cases ok"
	exit "$status"
}

pairs=10 workload=raw_rough seed=1 seconds=20
revs=()
while [ $# -gt 0 ]; do
	case "$1" in
	--selftest) selftest ;;
	--pairs) pairs=$2; shift 2 ;;
	--workload) workload=$2; shift 2 ;;
	--seed) seed=$2; shift 2 ;;
	--seconds) seconds=$2; shift 2 ;;
	-*) echo "bench-pair: unknown flag $1" >&2; exit 2 ;;
	*) revs+=("$1"); shift ;;
	esac
done
if [ ${#revs[@]} -lt 1 ] || [ ${#revs[@]} -gt 2 ] || ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: bench-pair.sh [--pairs N] [--workload W] [--seed S] [--seconds T] BASE [CHANGE] | --selftest" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "${revs[0]}^{commit}")
change=$(git -C "$root" rev-parse --verify "${revs[1]:-HEAD}^{commit}")
work=$root/.bench_build/pair
runs=$work/runs/$(date +%Y%m%d-%H%M%S)
mkdir -p "$runs" "$work/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTMPDIR="$work/tmp" GOTOOLCHAIN=local

if ! git -C "$root" diff --quiet "$base" "$change" -- benchmark; then
	echo "bench-pair: WARNING: benchmark/ differs between ${base:0:7} and ${change:0:7}; each side runs its own harness" >&2
fi

cleanup() {
	for side in base change; do
		git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
	done
}
trap cleanup EXIT
declare -A sha=([base]=$base [change]=$change)
for side in base change; do
	git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || rm -rf "${work:?}/$side"
	git -C "$root" worktree add --quiet --detach "$work/$side" "${sha[$side]}"
	go build -C "$work/$side/benchmark" -o "$work/$side.bin" .
done

run() { # side pair
	local out=$runs/$1-$2.json
	if ! (cd "$work/$1" && "$work/$1.bin" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 -out "$out") >"$runs/$1-$2.log" 2>&1; then
		echo "bench-pair: $1 run of pair $2 failed; see $runs/$1-$2.log" >&2
		tail -5 "$runs/$1-$2.log" >&2
		exit 1
	fi
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
	echo "bench-pair: pair $i/$pairs done" >&2
done

# value side pair metric
value() { jq -e ".metrics[\"$3\"] | numbers" "$runs/$1-$2.json"; }
# outputs side pair: the fingerprint and the sim_* metrics of one run.
outputs() { jq -r '[.fingerprint, (.metrics | to_entries | map(select(.key | startswith("sim_"))) | sort_by(.key)[] | "\(.key)=\(.value)")] | join(" ")' "$runs/$1-$2.json"; }
fmt() { # metric value
	if [ "$1" = events_per_s ]; then awk -v v="$2" 'BEGIN { printf "%.2f M", v / 1e6 }'; else awk -v v="$2" 'BEGIN { printf "%.4g", v }'; fi
}

moved=()
echo
echo "BASE ${base:0:7}, CHANGE ${change:0:7}: $workload, seed $seed, $pairs pairs of ${seconds} s runs (runs in ${runs#"$root"/})"
echo
echo "| seed | workload | metric | BASE ${base:0:7} median [q1, q3] | CHANGE ${change:0:7} median [q1, q3] | CHANGE / BASE (pairs) | CHANGE wins (sign test) |"
echo "|---|---|---|---|---|---|---|"
for metric in events_per_s wall_s setup_s peak_rss_mb; do
	better=lower
	[ "$metric" = events_per_s ] && better=higher
	values=""
	for ((i = 1; i <= pairs; i++)); do
		values+="$(value base $i "$metric") $(value change $i "$metric")"$'\n'
	done
	read -r bm bq1 bq3 cm cq1 cq3 ratio rmin rmax wins m p < <(printf '%s' "$values" | stats "$better")
	mark=""
	[ "$better" = higher ] && mark="×"
	printf '| %s | %s | `%s` | %s [%s, %s] | %s [%s, %s] | %s%s (pairs %s–%s) | %d / %d (p %s) |\n' \
		"$seed" "$workload" "$metric" "$(fmt "$metric" "$bm")" "$(fmt "$metric" "$bq1")" "$(fmt "$metric" "$bq3")" \
		"$(fmt "$metric" "$cm")" "$(fmt "$metric" "$cq1")" "$(fmt "$metric" "$cq3")" \
		"$(awk -v v="$ratio" 'BEGIN { printf "%.3g", v }')" "$mark" \
		"$(awk -v v="$rmin" 'BEGIN { printf "%.2f", v }')" "$(awk -v v="$rmax" 'BEGIN { printf "%.2f", v }')" \
		"$wins" "$pairs" "$(awk -v v="$p" 'BEGIN { printf "%.3g", v }')"
	if awk -v p="$p" -v bm="$bm" -v cm="$cm" -v iqr="$(awk -v a="$bq1" -v b="$bq3" 'BEGIN { print b - a }')" \
		'BEGIN { d = cm - bm; if (d < 0) d = -d; exit !(p <= 0.05 && d > iqr) }'; then
		if ((2 * wins > m)); then moved+=("$metric better"); else moved+=("$metric worse"); fi
	fi
done
ref=$(outputs base 1)
same=identical
for ((i = 1; i <= pairs; i++)); do
	for side in base change; do
		[ "$(outputs $side $i)" = "$ref" ] || same=DIFFER
	done
done
read -r fp simvals <<<"$ref"
printf '| %s | %s | fingerprint, `sim_*` | `%s`, %s | %s | **%s** (%d runs) | — |\n' \
	"$seed" "$workload" "$fp" "${simvals// /, }" "$([ "$same" = identical ] && echo same || echo see runs)" "$same" "$((2 * pairs))"
[ "$same" = identical ] || moved=("outputs differ" ${moved[@]+"${moved[@]}"})
echo
if [ ${#moved[@]} -eq 0 ]; then
	echo "verdict: unchanged"
else
	verdict=${moved[0]}
	for m in "${moved[@]:1}"; do verdict+=", $m"; done
	echo "verdict: $verdict"
fi
