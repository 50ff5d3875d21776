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

// Expose registers the cache's counters on reg as func-backed samples
// under the shared `incxml_cache_*` families, labeled cache=name. Several
// caches (the answer-decision and itree-membership caches) contribute
// children to the same families; the values are views over the same
// atomics CacheStats() reads.
func (c *Cache) Expose(reg *obs.Registry, name string) {
	reg.NewCounterVec("incxml_cache_hits_total",
		"Lookups served from a shared memo cache, by cache.", "cache").
		Func(c.hits.Load, name)
	reg.NewCounterVec("incxml_cache_misses_total",
		"Lookups that missed a shared memo cache, by cache.", "cache").
		Func(c.misses.Load, name)
	reg.NewCounterVec("incxml_cache_evictions_total",
		"Entries evicted from a shared memo cache under its size bound, by cache.", "cache").
		Func(c.evictions.Load, name)
	reg.NewGaugeVec("incxml_cache_entries",
		"Current entry count of a shared memo cache, by cache.", "cache").
		Func(func() float64 { return float64(c.Len()) }, name)
}
