#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (incrementally: the Go
# build cache lives there too, so nothing is written outside the checkout)
# and runs it with the given arguments. Called from the repository root:
#
#	bash benchmark/run.sh --workload tcp_echo_64b --seed 1 --seconds 5 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go build -C "$root/benchmark" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/demi-benchmark" .
exec "$build/demi-benchmark" "$@"
