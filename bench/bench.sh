#!/usr/bin/env bash
# The BENCHMARK.json command: build ./bench from source into the
# checkout's .bench_build/ (Go build cache included, so nothing is
# written outside the checkout) and run it with the given arguments:
#
#   bash bench/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It must be started from the root of a checkout of the whole
# repository; in a directory without the module it fails at the build.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/quartz-bench" ./bench
exec "$build/quartz-bench" "$@"
