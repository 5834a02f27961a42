#!/usr/bin/env bash
# Builds the benchmark program and runs it from the repository root:
#   bash perfbench/run.sh --workload query-spirit --seed 1 --seconds 28 --trace 0
# Build outputs, the Go build cache and run directories stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
