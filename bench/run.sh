#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is run
# from and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload mixed --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare before.jsonl after.jsonl
#
# Run it from the repository root. The Go build cache, temporary files and
# the harness binary all live under .bench_build/ in the working directory,
# so the run writes nothing outside the checkout and never fetches modules.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/bench" build -o "$build/incxml-bench" .
exec "$build/incxml-bench" "$@"
