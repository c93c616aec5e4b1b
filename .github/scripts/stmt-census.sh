#!/usr/bin/env bash
# Statement census: which statements of the root module does no program
# execute? Builds every command, every example and the benchmark harness with
# coverage (`go build -cover -coverpkg=sage/...`), runs a fixed sweep that
# passes every flag of every program at least once and runs every fault roster
# (testdata/faults, one per failure class), merges the counters with
# `go tool covdata` and counts, per package and per function, the statements
# no run reached. Tests are not reachers, and the harness's own package
# (sage/benchmark) is left out.
#
# The table, testdata/stmt_census.txt, holds one line per package
# ("package DIR UNREACHED TOTAL") and one per function that keeps unreached
# statements ("func DIR.[Type.]Name UNREACHED REASON [NOTE]"), where REASON is
# one of
#
#	invariant  a panic (or a printed verdict) on a programming error
#	input      rejects or clamps a value from outside the program, or an
#	           argument outside a library function's domain
#	error      handles an error or a failed result a call returns
#	shutdown   a stop, abort, cleanup or already-finished path
#	fault      a recovery path no committed roster reaches; NOTE names the test
#	           that pins it, and the line says why no roster can
#	shape      a job shape api/v1 cannot express (ad-hoc keys, a Map, key
#	           prefixes); NOTE names the test that pins it and the missing field
#	oracle     a reference a named test compares against (NOTE names it)
#	stringer   a String method
#
# Usage, from the repository root:
#
#	bash .github/scripts/stmt-census.sh          # sweep and check the table
#	bash .github/scripts/stmt-census.sh --write  # sweep and rewrite it
#
# The check fails when any count differs from the table (a grown count is a
# regression; a shrunk one means the table must be rewritten, so the ratchet
# holds the lower number), when a function is unlisted or its line is stale,
# and when a reason is outside the vocabulary or a NOTE names no test. It
# then proves that it bites: the comparison must fail, naming the package or
# the function, against copies of the table with one package's count lowered
# by one and with a stale function line added. --write carries every
# function's reason over from the old table; a new function gets "?", which
# the check rejects until someone writes a reason.
#
# Every process runs with GOMAXPROCS=2, so the stage worker count the engine
# derives from it is the same on every host. Two sweeps write byte-identical
# tables; a block reached in one sweep and not the other is a bug here.
set -euo pipefail

write=false
case "${1:-}" in
"") ;;
--write) write=true ;;
*)
	echo "usage: $0 [--write]" >&2
	exit 2
	;;
esac

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
root=$PWD
table=testdata/stmt_census.txt
work=$root/.bench_build/census
bin=$work/bin
cov=$work/cov
tmp=$work/tmp
export GOMAXPROCS=2

# ok runs a program that must succeed; rejects one that must fail. Output
# goes to the sweep log.
log=$work/sweep.log
ok() {
	echo "+ $*" >>"$log"
	if ! GOCOVERDIR=$cov "$@" >>"$log" 2>&1; then
		echo "stmt-census: failed: $*" >&2
		tail -20 "$log" >&2
		exit 1
	fi
}
rejects() {
	echo "+ (must fail) $*" >>"$log"
	if GOCOVERDIR=$cov "$@" >>"$log" 2>&1; then
		echo "stmt-census: should have failed: $*" >&2
		exit 1
	fi
}

# status METHOD PATH WANT [curl args...] sends one request to the running
# saged and requires the HTTP status WANT.
status() {
	local method=$1 path=$2 want=$3
	shift 3
	local got
	got=$(curl -s -o "$tmp/body" -w '%{http_code}' -X "$method" "$@" "http://$addr$path")
	cat "$tmp/body" >>"$log"
	if [ "$got" != "$want" ]; then
		echo "stmt-census: $method $path: HTTP $got, want $want" >&2
		cat "$tmp/body" >&2
		exit 1
	fi
}

# await PATH JQ polls a saged route until the jq filter holds.
await() {
	for _ in $(seq 1 600); do
		if curl -fs "http://$addr$1" | jq -e "$2" >/dev/null; then
			return
		fi
		sleep 0.05
	done
	echo "stmt-census: timed out waiting for $1 to satisfy $2" >&2
	exit 1
}

# start_saged ARGS... starts saged on a free port and sets pid and addr. A
# sweep that fails leaves no server behind. Each server writes a fresh file:
# a line left by the last one would name a port nobody listens on.
pid=
trap '[ -z "$pid" ] || kill "$pid" 2>/dev/null || true' EXIT
start_saged() {
	rm -f "$tmp/saged.out"
	GOCOVERDIR=$cov "$bin/saged" -addr localhost:0 "$@" >"$tmp/saged.out" 2>&1 &
	pid=$!
	for _ in $(seq 1 200); do
		addr=$(sed -nE 's|^saged: listening on http://(.*)$|\1|p' "$tmp/saged.out" 2>/dev/null)
		[ -n "$addr" ] && return
		sleep 0.05
	done
	echo "stmt-census: saged did not start" >&2
	exit 1
}

# stop sends SIGINT to the server started last and requires a clean exit.
stop() {
	kill -INT "$pid"
	if ! wait "$pid"; then
		echo "stmt-census: process $pid exited non-zero after SIGINT" >&2
		exit 1
	fi
	pid=
}

# roster NAME JOBS [MORE] prints a roster of the jobs array JOBS with one
# admission slot, the default seed and the further top-level fields MORE.
roster() {
	printf '{"name":"%s","weather":"calm","scheduler":{"max_concurrent":1,"policy":"fifo"},"jobs":%s%s}' "$1" "$2" "${3:-}"
}

sweep() {
	rm -rf "$work"
	mkdir -p "$bin" "$cov" "$tmp"
	: >"$log"

	for d in cmd/* examples/*; do
		[ -f "$d/main.go" ] || continue
		go build -cover -coverpkg=sage/... -o "$bin/$(basename "$d")" "./$d"
	done
	go build -C benchmark -cover -coverpkg=sage/... -o "$bin/benchmark" .

	# sagebench: the index, every experiment in quick and in full mode, the
	# micro-baseline, single experiments with every output and profile flag,
	# and the ways a command line can be wrong.
	ok "$bin/sagebench" -list
	ok "$bin/sagebench" -list -cpuprofile "$tmp/unused.out"
	ok "$bin/sagebench" -h
	rejects "$bin/sagebench" -no-such-flag
	rejects "$bin/sagebench" -exp 99
	rejects "$bin/sagebench" -quick -exp 1 -cpuprofile "$tmp/no/such/dir"
	rejects "$bin/sagebench" -quick -exp 1 -memprofile "$tmp/no/such/dir"
	ok "$bin/sagebench" -quick -csv
	ok "$bin/sagebench"
	ok "$bin/sagebench" -quick -exp 5 -seed 2 -cpuprofile "$tmp/cpu.out" -memprofile "$tmp/mem.out"
	ok "$bin/sagebench" -quick -exp 20 -shards 2 -world-sites 30 -world-regions 3
	ok "$bin/sagebench" -quick -exp 20 -world-sites 8 -world-regions 12
	# The suite's two environment switches and the default seed.
	ok env SAGE_SHARDS=2 SAGE_OBS=1 "$bin/sagebench" -quick -exp 3 -seed 0
	ok "$bin/sagebench" -perf -perf-out "$tmp/perf.json"

	# Each example, from its own directory.
	for d in examples/*; do
		[ -f "$d/main.go" ] || continue
		(cd "$d" && ok "$bin/$(basename "$d")")
	done

	# sagesim: flag-built jobs with every strategy, raw, resilient and
	# traced; a generated world; each scenario mode; and bad input.
	ok "$bin/sagesim" -minutes 2
	ok "$bin/sagesim" -raw -seed 0 -minutes 2
	for s in direct parallel envaware widest multipath; do
		ok "$bin/sagesim" -strategy "$s" -budget 0.02 -minutes 3
	done
	ok "$bin/sagesim" -checkpoint-interval 30s -trace "$tmp/sim.jsonl" -minutes 3
	ok "$bin/sagesim" -budget 0.000000001 -minutes 2
	ok "$bin/sagesim" -sources NEU,WEU -sink WEU -rate 400 -window 20s -seed 4 -workers 4 \
		-cpuprofile "$tmp/simcpu.out" -memprofile "$tmp/simmem.out" -minutes 2
	ok "$bin/sagesim" -world-sites 60 -world-regions 4 -shards 2 -rate 50 -minutes 2
	ok "$bin/sagesim" -jobs-file examples/multijob/jobs.json -report-json "$tmp/report.json"
	ok "$bin/sagesim" -jobs-file examples/multijob/jobs.json -report-json - -shards 1
	cat >"$tmp/job.json" <<-'EOF'
		{"name": "census-job", "seed": 2, "topology": "world", "weather": "rough",
		 "cross_traffic": "45s", "workers": {"Small": 2, "XLarge": 2},
		 "job": {"sources": [{"site": "NEU", "rate": 300, "keys": 50, "skew": 1.2, "diurnal_amplitude": 0.3},
		                     {"site": "SEA", "rate": 300}],
		         "sink": "NUS", "window": "30s", "agg": "max", "strategy": "widest",
		         "lanes": 2, "intrusiveness": 0.4,
		         "deadline_per_window": "1ms", "checkpoint_interval": "30s", "duration": "4m"},
		 "injections": [{"at": "1m", "kind": "link_scale", "from": "NEU", "to": "NUS", "factor": 0.3},
		                {"at": "80s", "kind": "kill_node", "from": "NEU", "node": 1},
		                {"at": "100s", "kind": "restore_node", "from": "NEU", "node": 1},
		                {"at": "2m", "kind": "kill_site", "from": "SEA"},
		                {"at": "3m", "kind": "restore_site", "from": "SEA"}],
		 "warmup": "2m"}
	EOF
	cat >"$tmp/gather.json" <<-'EOF'
		{"name": "census-gather",
		 "gather": {"sites": ["NEU", "WEU", "SUS"], "files": 6, "file_bytes": 50000000,
		            "sink": "NUS", "strategy": "multipath", "lanes": 3, "intrusiveness": 0.5}}
	EOF
	# A roster with no scheduler block and no seed takes both defaults.
	jq 'del(.scheduler, .seed)' examples/multijob/jobs.json >"$tmp/defaults.json"
	ok "$bin/sagesim" -jobs-file "$tmp/defaults.json"
	ok "$bin/sagesim" -scenario "$tmp/job.json" -trace "$tmp/job.jsonl"
	ok "$bin/sagesim" -scenario "$tmp/gather.json"
	ok "$bin/sagesim" -scenario examples/multijob/jobs.json
	# The fault rosters, one per failure class: each recovery path a program
	# can take.
	for f in testdata/faults/*.json; do
		ok "$bin/sagesim" -scenario "$f" -trace "$tmp/fault.jsonl"
	done
	rejects "$bin/sagesim" -scenario "$tmp/gather.json" -report-json "$tmp/x.json"
	rejects "$bin/sagesim" -jobs-file "$tmp/job.json"
	rejects "$bin/sagesim" -scenario "$tmp/no-such-file.json"
	rejects "$bin/sagesim" -sources MARS,NEU -minutes 2
	rejects "$bin/sagesim" -strategy teleport
	rejects "$bin/sagesim" -no-such-flag
	ok "$bin/sagesim" -h

	# sageinspect and sagemon, every flag; sagemon's scrape endpoint is read
	# once while it serves, then interrupted.
	ok "$bin/sageinspect"
	ok "$bin/sageinspect" -hours 1 -target 5 -ref 100000000 -lanes 2 -seed 3 \
		-timeline "$tmp/timeline.json" -spans "$tmp/spans.json"
	ok "$bin/sagemon" -metrics
	ok "$bin/sagemon" -hours 0.5 -every 10m -seed 2
	GOCOVERDIR=$cov "$bin/sagemon" -hours 0.2 -serve localhost:0 >"$tmp/sagemon.out" 2>&1 &
	pid=$!
	for _ in $(seq 1 200); do
		grep -q 'still serving' "$tmp/sagemon.out" && break
		sleep 0.05
	done
	curl -fs "$(sed -nE 's|^sagemon: serving metrics at (.*)$|\1|p' "$tmp/sagemon.out")" >>"$log"
	stop

	# The harness: the four workloads, untraced and traced (a traced
	# serve_roster runs the daemon in-process), from the repository root.
	for w in agg_wide raw_rough resil_recover serve_roster; do
		ok "$bin/benchmark" -workload "$w" -seed 1 -seconds 2 -trace 0 -out "$tmp/$w.json"
		ok "$bin/benchmark" -workload "$w" -seed 1 -seconds 2 -trace 1 -trace-out "$tmp/$w.spans"
	done

	# saged, paused at start with the audit log on: every route, every
	# rejection it maps, and cancel / pause / resume of a job in each state
	# (not yet arrived, queued, running, finished). A quantum is one virtual
	# minute paced to one wall second, so the clock pause sent right after a
	# resume lands while the first quantum sleeps: exactly one minute runs,
	# and the running job's first raw window is still crossing the
	# throttled NEU -> NUS link when it is paused, resumed and cancelled.
	start_saged -paused -audit "$tmp/audit.jsonl" -quantum 1m -speed 60
	status GET /api/v1/jobs 200
	status GET /api/v1/clock 200
	status GET /api/v1/report 409
	status DELETE /api/v1/jobs/none 404
	status POST /api/v1/clock 400 --data '{"action":"sleep"}'
	status POST /api/v1/jobs 400 --data '{"name":'
	status POST /api/v1/jobs 400 --data "$(roster bad-site '[{"name":"m","sources":[{"site":"MARS","rate":10}],"sink":"NUS","window":"30s","agg":"sum","strategy":"direct","duration":"1m"}]')"
	status POST /api/v1/jobs 400 --data '{"name":"g","gather":{"sites":["NEU"],"files":1,"file_bytes":1000,"sink":"NUS","strategy":"direct"}}'
	head -c $((5 << 20)) /dev/zero | tr '\0' ' ' >"$tmp/big.json"
	status POST /api/v1/jobs 413 --data-binary "@$tmp/big.json"
	status POST /api/v1/jobs 201 --data "$(roster live '[
		{"name":"long","tenant":"a","sources":[{"site":"NEU","rate":500}],"sink":"NUS","window":"10s","agg":"sum","strategy":"direct","ship_raw":true,"duration":"2h"},
		{"name":"queued","tenant":"b","sources":[{"site":"SUS","rate":200}],"sink":"NUS","window":"10s","agg":"count","strategy":"direct","duration":"20s"},
		{"name":"held","tenant":"b","priority":2,"sources":[{"site":"WEU","rate":200}],"sink":"NUS","window":"10s","agg":"min","strategy":"parallel","duration":"20s"},
		{"name":"late","arrival":"1h","sources":[{"site":"NEU","rate":100}],"sink":"NUS","window":"10s","agg":"mean","strategy":"envaware","duration":"20s"}]' \
		',"injections":[{"at":"0s","kind":"link_scale","from":"NEU","to":"NUS","factor":0.0001}]')"
	status POST /api/v1/jobs 409 --data "$(roster dup '[{"name":"long","sources":[{"site":"NEU","rate":1}],"sink":"NUS","window":"10s","agg":"sum","strategy":"direct","duration":"1m"}]')"
	status POST /api/v1/jobs/held/pause 200
	status POST /api/v1/jobs/held/pause 200
	status POST /api/v1/jobs/late/pause 200
	status DELETE /api/v1/jobs/late 200
	status DELETE /api/v1/jobs/late 200
	status GET /api/v1/jobs/nobody 404
	status POST /api/v1/clock 200 --data '{"action":"resume"}'
	status POST /api/v1/clock 200 --data '{"action":"pause"}'
	status GET /api/v1/jobs 200
	jq -e '[.jobs[] | .state] == ["running", "queued", "paused", "cancelled"]' "$tmp/body" >/dev/null || {
		echo "stmt-census: saged states after one quantum: $(jq -c '[.jobs[] | .state]' "$tmp/body")" >&2
		exit 1
	}
	status POST /api/v1/jobs/long/pause 200
	status POST /api/v1/jobs/long/resume 200
	status POST /api/v1/jobs/long/resume 200
	status DELETE /api/v1/jobs/queued 200
	status DELETE /api/v1/jobs/long 200
	status POST /api/v1/jobs/held/resume 200
	status GET /api/v1/report 409
	status POST /api/v1/jobs 201 --data "$(roster second '[{"sources":[{"site":"SUS","rate":100}],"sink":"NUS","window":"10s","agg":"max","strategy":"widest","duration":"20s"}]')"
	status POST /api/v1/clock 200 --data '{"action":"resume"}'
	await /api/v1/jobs '[.jobs[] | select(.state == "done" or .state == "cancelled")] | length == 5'
	status DELETE /api/v1/jobs/held 409
	status POST /api/v1/jobs/held/pause 409
	status POST /api/v1/jobs/held/resume 409
	status GET /metrics 200
	status GET /api/v1/timeline 200
	status GET /api/v1/report 200
	stop
	test -s "$tmp/audit.jsonl"
	# A daemon whose audit log cannot be opened, and one whose writes fail.
	rejects "$bin/saged" -addr localhost:0 -audit "$tmp/no/such/dir/audit.jsonl"
	rejects "$bin/saged" -addr 127.0.0.1:99999
	start_saged -audit /dev/full
	status POST /api/v1/clock 200 --data '{"action":"pause"}'
	kill -INT "$pid"
	if wait "$pid"; then
		echo "stmt-census: saged -audit /dev/full exited 0" >&2
		exit 1
	fi
	pid=
	# A fault roster under the daemon, whose metric families and timeline
	# see its failovers.
	start_saged -quantum 10m
	status POST /api/v1/jobs 201 --data-binary @testdata/faults/preempt.json
	await /api/v1/jobs '[.jobs[] | select(.state == "done")] | length == 3'
	status GET /metrics 200
	status GET /api/v1/timeline 200
	stop
}

# tabulate writes the census table of the sweep in $cov to stdout, carrying
# reasons over from the table file $1.
tabulate() {
	go tool covdata textfmt -i="$cov" -o "$work/raw.txt"
	# One line per block; a block reached by any run is reached.
	awk 'NR > 1 && $1 !~ /^sage\/benchmark\// {
		if (!($1 in n)) { n[$1] = $2; order[++k] = $1 }
		if ($3 > 0) hit[$1] = 1
	} END {
		print "mode: set"
		for (i = 1; i <= k; i++) print order[i], n[order[i]], (order[i] in hit) ? 1 : 0
	}' "$work/raw.txt" >"$work/merged.txt"
	go tool cover -func="$work/merged.txt" | grep -v '^total:' >"$work/funcs.txt"
	awk -v reasons="$1" '
	function pkgof(file) { sub(/^sage\//, "", file); sub(/\/[^\/]*$/, "", file); return file }
	BEGIN {
		while ((getline line < reasons) > 0) {
			nf = split(line, f, " ")
			if (f[1] != "func") continue
			note = ""
			for (i = 5; i <= nf; i++) note = note " " f[i]
			why[f[2]] = f[4] note
		}
	}
	FNR == 1 { file++ }
	file == 1 {
		# sage/internal/x/y.go:LINE:	Name	PCT%
		split($1, a, ":")
		src = a[1]; sub(/^sage\//, "", src)
		ln = a[2]
		if (!(src in text)) {
			nl = 0
			while ((getline l < src) > 0) text[src, ++nl] = l
			text[src] = nl
		}
		decl = text[src, ln]
		recv = ""
		if (decl ~ /^func \(/) {
			r = decl; sub(/^func \(/, "", r); sub(/\).*/, "", r)
			nr = split(r, rw, /[ *]+/); r = rw[nr]; sub(/\[.*/, "", r)
			recv = r "."
		}
		nfn[src]++
		fstart[src, nfn[src]] = ln + 0
		fname[src, nfn[src]] = pkgof(a[1]) "." recv $2
		next
	}
	$1 == "mode:" { next }
	{
		# sage/internal/x/y.go:L0.C0,L1.C1 STMTS HIT
		split($1, a, ":"); split(a[2], b, "."); src = a[1]; sub(/^sage\//, "", src)
		p = pkgof(a[1])
		total[p] += $2
		pk[p] = 1
		if ($3 > 0) next
		un[p] += $2
		fn = ""
		for (i = 1; i <= nfn[src]; i++) if (fstart[src, i] <= b[1] + 0) fn = fname[src, i]
		ufn[fn] += $2
	}
	END {
		for (p in pk) { printf "package %s %d %d\n", p, un[p], total[p]; all += un[p]; tot += total[p] }
		printf "total %d %d\n", all, tot
		for (fn in ufn) printf "func %s %d %s\n", fn, ufn[fn], (fn in why) ? why[fn] : "?"
	}' "$work/funcs.txt" "$work/merged.txt" >"$work/rows.txt"
	echo "# Statement census: statements of the root module no program executes."
	echo "# Written by .github/scripts/stmt-census.sh --write and checked in CI. Lines:"
	echo "#   package DIR UNREACHED TOTAL"
	echo "#   func DIR.[Type.]Name UNREACHED REASON [NOTE]"
	echo "# REASON is invariant, input, error, shutdown, fault, shape, oracle or stringer (see the script)."
	for kind in package total func; do
		grep "^$kind " "$work/rows.txt" | LC_ALL=C sort
	done
}

# compare GOT WANT prints every difference between the swept table GOT and
# the table WANT and fails if there is one.
compare() {
	awk -v vocab="invariant input error shutdown fault shape oracle stringer" '
	BEGIN { split(vocab, v, " "); for (i in v) okwhy[v[i]] = 1 }
	FNR == 1 { file++ }
	/^#/ { next }
	$1 == "func" { key = "func " $2; cnt = $3 }
	$1 == "package" { key = "package " $2; cnt = $3 " " $4 }
	$1 == "total" { key = "total"; cnt = $2 " " $3 }
	file == 1 { got[key] = cnt; next }
	{
		want[key] = cnt
		if ($1 == "func" && !($4 in okwhy)) { print "no reason: " $2 " (\"" $4 "\" is not one of: " vocab ")"; bad = 1 }
		if ($1 == "func" && ($4 == "fault" || $4 == "shape" || $4 == "oracle") && $5 !~ /^(Test|Fuzz)/) { print "no named test: " $2 " (" $4 ")"; bad = 1 }
	}
	END {
		for (k in got) {
			if (!(k in want)) {
				print (k ~ /^func/ ? "unlisted: " : "missing: ") k " has " got[k] " unreached; delete it, reach it, or list it with a reason"
				bad = 1
			} else if (got[k] != want[k]) {
				split(got[k], g, " "); split(want[k], w, " ")
				print ((g[1] + 0 > w[1] + 0) ? "grew: " : (g[1] + 0 < w[1] + 0) ? "shrank (rewrite the table): " : "changed total: ") k " is " got[k] ", table says " want[k]
				bad = 1
			}
		}
		for (k in want) if (!(k in got)) { print "stale: " k " (" want[k] ") is fully reached or gone"; bad = 1 }
		exit bad
	}' "$1" "$2" | sort
	return "${PIPESTATUS[0]}"
}

# named_tests TABLE fails for a fault, shape or oracle line whose test no test
# file declares.
named_tests() {
	local status=0 name
	for name in $(awk '$1 == "func" && ($4 == "fault" || $4 == "shape" || $4 == "oracle") { print $5 }' "$1" | sort -u); do
		if ! grep -rqE "^func ${name}\(" --include='*_test.go' .; then
			echo "no such test: $name (named in $1)"
			status=1
		fi
	done
	return $status
}

sweep
[ -f "$table" ] || : >"$table"
tabulate "$table" >"$work/table.txt"
if $write; then
	cp "$work/table.txt" "$table"
	echo "wrote $table"
fi

status=0
compare "$work/table.txt" "$table" || status=1
named_tests "$table" || status=1
[ $status = 0 ] || exit 1
echo "census matches $table: $(awk '$1 == "total" { print $2 " of " $3 }' "$table") statements unreached"

# The guard must bite: a table whose first non-zero package count is one
# lower, and a table with a stale function line, must both fail by name.
pkg=$(awk '$1 == "package" && $3 > 0 { print $2; exit }' "$table")
awk -v p="$pkg" '$1 == "package" && $2 == p { $3-- } { print }' "$table" >"$work/doctored.txt"
if out=$(compare "$work/table.txt" "$work/doctored.txt") || ! grep -q "grew: package $pkg " <<<"$out"; then
	echo "stmt-census: a table with $pkg lowered by one was not refused by name" >&2
	exit 1
fi
{ cat "$table"; echo "func internal/census.Gone 1 error"; } >"$work/doctored.txt"
if out=$(compare "$work/table.txt" "$work/doctored.txt") || ! grep -q "stale: func internal/census.Gone" <<<"$out"; then
	echo "stmt-census: a stale function line was not refused by name" >&2
	exit 1
fi
echo "guard bites: a lowered count ($pkg) and a stale line are refused"
