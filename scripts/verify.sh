#!/bin/sh
# Full verification gate: static checks, the tier-1 suite, the
# race-detector run that guards the concurrent serving layer and its
# fan-outs, and a short fuzz smoke over every parser boundary. CI and
# pre-merge checks should run this (or `make verify`).
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: every Go file, the bench/ module included, must be gofmt-clean.
test -z "$(gofmt -l .)"
go vet ./...
# Godoc gate: the public facade and the operator-facing packages must
# document every exported symbol (see scripts/doclint).
go run ./scripts/doclint incxml.go ./internal/obs ./internal/budget ./internal/serve ./internal/certify ./internal/store ./internal/workload ./internal/extquery ./internal/reductions \
	./internal/engine ./internal/conj ./internal/itree ./internal/answer ./internal/refine ./internal/mediator ./internal/shard ./internal/webhouse
# staticcheck is optional tooling: run it when installed, skip silently
# in minimal environments.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
fi
go build ./...
go test ./...
go test -race ./...

# The benchmark harness is its own module (bench/go.mod), so `go test ./...`
# never compiles it. Build and smoke-test it here, so a serving-layer change
# that breaks serve.RequestForOp or serve.Config fails the gate (~5 s).
(cd bench && go test .)

# E20 smoke (EXPERIMENTS.md): the metrics/tracing pipeline must not cost
# more than 5% of p99 serving latency. Short mode keeps the gate fast;
# three runs make a noisy estimator fail the gate rather than pass it by
# luck. cmd/benchrobust produces the full-size numbers.
go test ./internal/serve/ -run TestE20MetricsOverhead -short -count=3

# E21 smoke (EXPERIMENTS.md): the pruned certificate search must keep the
# blowup family exactly decided at the benchmark budget well past the old
# n=6 crossover. cmd/benchrobust produces the full crossover table.
go test ./internal/conj/ -run TestE21CrossoverSmoke -short -count=1

# E22 smoke (EXPERIMENTS.md): the parallel scatter must beat the sequential
# fan-out over the same fleet under injected source latency — even on one
# CPU, the per-shard waits have to overlap. BenchmarkE22 measures the full
# 1/2/4-shard table and the one-shard-down case; one iteration of each here
# keeps the benchmark compiling and running.
go test ./internal/shard/ -run TestE22ScatterSmoke -short -count=1
go test ./internal/shard/ -run '^$' -bench BenchmarkE22 -benchtime 1x

# E23 smoke (EXPERIMENTS.md): completeness certificates must never
# overclaim — random outage instances, the certified sub-query's answer over
# every certain fragment must equal its answer over the world. The full
# 200-round pass runs in the plain suite; -short trims it here since the
# race run above already covered it. cmd/benchrobust produces the ratio
# distribution.
go test ./internal/shard/ -run TestCertificateSoundnessSoak -short -count=1

# E24 smoke (EXPERIMENTS.md): crash-recovery must reproduce the exact
# pre-crash state — a trimmed run of the fault-injection soak (truncated,
# bit-flipped and torn WAL tails against the shadow oracle). The full
# 220-round pass runs in the plain suite above; cmd/benchrobust produces
# the durability cost numbers.
go test ./internal/store/ -run TestCrashRecoverySoak -short -count=1

# E25 smoke (EXPERIMENTS.md): a small generated traffic stream — zipfian
# sources, session shapes, extension and reduction probes — driven through
# the HTTP surface; every definite verdict must match the in-package
# oracles on every source. The repository benchmark's mixed workload
# (bash bench/run.sh --workload mixed) measures the same stream's latency.
go test ./internal/serve/ -run TestE25TrafficSmoke -short -count=1

# Fuzz smoke: a couple of seconds per serving-path parser and per
# durability decoder (the snapshot and WAL codecs parse attacker-grade
# bytes after a crash), plus Refine's compaction over decoded incomplete
# trees (no panic, rep kept). This is a regression sweep over the corpora
# plus a short random exploration, not a full campaign.
FUZZTIME="${FUZZTIME:-2s}"
go test ./internal/query/ -fuzz FuzzParse             -fuzztime "$FUZZTIME"
go test ./internal/cond/  -fuzz FuzzParse             -fuzztime "$FUZZTIME"
go test ./internal/dtd/   -fuzz FuzzParse             -fuzztime "$FUZZTIME"
go test ./internal/rat/   -fuzz FuzzParse             -fuzztime "$FUZZTIME"
go test ./internal/rat/   -fuzz FuzzCmp               -fuzztime "$FUZZTIME"
go test ./internal/xmlio/ -fuzz FuzzUnmarshal         -fuzztime "$FUZZTIME"
go test ./internal/store/ -fuzz FuzzSnapshotRoundTrip -fuzztime "$FUZZTIME"
go test ./internal/store/ -fuzz FuzzWALDecode         -fuzztime "$FUZZTIME"
go test ./internal/store/ -fuzz FuzzManifestDecode    -fuzztime "$FUZZTIME"
go test ./internal/refine/ -fuzz FuzzCompact          -fuzztime "$FUZZTIME"
