#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload sli-drain --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays inside the checkout:
# the Go build cache, temporary files and the binary under .bench_build/,
# reports and profiles under .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/cache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
