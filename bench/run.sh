#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#   bash bench/run.sh --workload decode_heavy --seed 1 --seconds 20 --trace 0
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/serve-bench" ./bench
exec "$build/serve-bench" "$@"
