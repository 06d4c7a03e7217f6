#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it with the given arguments. This is BENCHMARK.json's command:
#
#   bash bench/run.sh --workload point-open --seed 7 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, temporary files)
# stays in .bench_build/ inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod and internal/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off

go build -o "$build/opaque-bench" ./bench
exec "$build/opaque-bench" "$@"
