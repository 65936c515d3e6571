#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache included, so nothing is written outside
# it) and runs it with the driver's arguments. Run from the repository root.
# `go run ./bench ...` is the same program through the user's own cache.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -o "$root/.bench_build/xmpbench" ./bench
exec "$root/.bench_build/xmpbench" "$@"
