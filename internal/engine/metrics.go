package engine

import "incxml/internal/obs"

// Metrics exposition for the engine layer. The default pool's utilization
// counters are registered on the process-wide registry as func-backed
// views over the same atomics Stats() reads, so /metrics and programmatic
// stats can never disagree. Custom pools (NewPool) are not auto-exposed:
// the hot paths all run on the default pool unless a caller deliberately
// isolates work, and per-pool label cardinality is not worth that edge
// case (DESIGN.md "Observability", cardinality rules).
func init() {
	d := obs.Default()
	p := Default()
	d.GaugeFunc("incxml_engine_workers",
		"Worker bound of the default evaluation pool (GOMAXPROCS unless overridden).",
		func() float64 { return float64(p.workers) })
	d.CounterFunc("incxml_engine_tasks_total",
		"Tasks run by the default pool (local-answer facets and completion sub-requests).",
		func() uint64 { return p.tasks.Load() })
	d.CounterFunc("incxml_engine_worker_launches_total",
		"Worker goroutines spawned by the default pool (workers are per-call, not persistent).",
		func() uint64 { return p.launches.Load() })
}
