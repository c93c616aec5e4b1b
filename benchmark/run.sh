#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload agg_wide --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (the Go build cache and work
# directories, the two binaries) goes to .bench_build/ at the repository
# root, so a run reads and writes only inside its checkout. Without arguments
# it runs the whole suite; see benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
