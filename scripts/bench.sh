#!/bin/sh
# Robustness benchmark: budgeted vs. exact conjunctive emptiness on the
# Example 3.2 blowup family, the E20 metrics-overhead comparison, the E21
# raw-speed block (budgeted crossover n, single-worker before/after ns/op
# and allocs/op on the hard-empty family), the E23 certificate soak and the
# E24 durability costs. Writes BENCH_robustness.json at the repo root.
# Served latency is measured by bash bench/run.sh, and the E22 scatter
# scaling by `go test ./internal/shard/ -run '^$' -bench BenchmarkE22`.
#
# `scripts/bench.sh e21` runs only the raw-speed microbenchmarks (no JSON),
# handy for before/after comparisons while iterating on the hot paths.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "e21" ]; then
	shift
	exec go test -bench 'EmptyScan|EmptySequentialHardEmpty|Canonical|FreshID' \
		-benchmem -run '^$' ./internal/conj ./internal/tree "$@"
fi

go run ./cmd/benchrobust -out BENCH_robustness.json "$@"
