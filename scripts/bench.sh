#!/usr/bin/env bash
# The repository's benchmark harness: runs the fixed benchmark list below
# once and writes BENCH_shapes.json at the repository root (see
# scripts/benchjson for the format). The list covers E1-E17 and the
# ablations (bench_test.go), the E19/E21 blowup sweep and the hard-empty
# before/after pair (internal/conj), the tree hot paths (internal/tree),
# the answer renderer (internal/xmlio), the redundant-fold and
# completion-merge paths (internal/webhouse), E20 and the handler hits
# (internal/serve), E22 and E23 (internal/shard) and E24 (internal/store).
# EXPERIMENTS.md cites every number from that file. GOMAXPROCS is pinned
# to 2 so that runs on different hosts compare. Served latency is measured
# separately by bash bench/run.sh.
#
# Usage: bash scripts/bench.sh   (no arguments; a few minutes on 2 vCPUs)
set -euo pipefail

cd "$(dirname "$0")/.."

raw=$(mktemp)
out=$(mktemp)
trap 'rm -f "$raw" "$out"' EXIT

go test -run '^$' -bench . -benchmem -benchtime 100ms -count 5 -cpu 2 \
	. ./internal/conj ./internal/tree ./internal/xmlio ./internal/webhouse ./internal/serve ./internal/shard ./internal/store |
	tee "$raw"
go run ./scripts/benchjson <"$raw" >"$out"
cat "$out" >BENCH_shapes.json
echo "wrote BENCH_shapes.json"
