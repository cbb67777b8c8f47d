#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source inside
# the checkout (compiler cache and temporaries included, so nothing is written
# outside it) and runs it with the arguments the driver appends:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/colsort-bench" .
cd "$root"
exec "$build/colsort-bench" -scratch "$build/scratch" "$@"
