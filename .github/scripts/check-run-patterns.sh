#!/usr/bin/env bash
# Fails when a test name in a `go test ... -run` alternation of the CI
# workflow matches no test of the packages that command names. Without this
# check, deleting or renaming a test silently empties the guard step that
# named it: `go test -run` passes when nothing matches.
#
# Run from the repository root: bash .github/scripts/check-run-patterns.sh
set -euo pipefail

workflow=.github/workflows/ci.yml
status=0
checked=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run[= ]'?([^' ]+)'?.*/\1/" <<<"$line")
	[ "$pattern" = NONE ] && continue
	read -ra pkgs <<<"$(grep -oE '\./[^ ;]+' <<<"$line" | tr '\n' ' ')"
	IFS='|' read -ra names <<<"$pattern"
	for name in "${names[@]}"; do
		checked=$((checked + 1))
		listed=$(go test -list "$name" "${pkgs[@]}")
		if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
			echo "$workflow: -run $name matches no test in ${pkgs[*]}"
			status=1
		fi
	done
done < <(grep -E 'go test .*-run[= ]' "$workflow")
echo "checked $checked -run names"
exit $status
