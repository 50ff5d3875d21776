package shard

import (
	"strconv"

	"incxml/internal/obs"
)

// ExposeMetrics registers the cluster's serving counters on reg as
// func-backed, scrape-time views. The webhouse-level families
// (`incxml_webhouse_*`, `incxml_source_*`) sum every shard's webhouse
// counters, and a set of `incxml_shard_*` families breaks the same signals
// down per shard.
// Per-source children (breaker state) come straight from each shard's
// webhouse; source sets are disjoint, so the labeled children never
// collide. Expose after registering the fleet.
func (c *Cluster) ExposeMetrics(reg *obs.Registry) {
	// Cluster-wide totals, summed over shards at scrape time.
	reg.CounterFunc("incxml_webhouse_answer_cache_hits_total",
		"Local/extended answers served from the answers memoized on the knowledge snapshots.",
		func() uint64 { return c.Stats().AnswerCacheHits })
	reg.CounterFunc("incxml_webhouse_answer_cache_misses_total",
		"Local/extended answer lookups that found no answer memoized on the knowledge snapshot.",
		func() uint64 { return c.Stats().AnswerCacheMisses })
	reg.CounterFunc("incxml_webhouse_degraded_answers_total",
		"AnswerComplete calls that fell back to the approximate local answer (source unavailable).",
		func() uint64 { return c.Stats().DegradedAnswers })
	reg.CounterFunc("incxml_webhouse_budget_exhaustions_total",
		"Local computations whose step or deadline budget ran out.",
		func() uint64 { return c.Stats().BudgetExhaustions })
	reg.CounterFunc("incxml_webhouse_lossy_fallbacks_total",
		"Computations recovered through the Proposition 3.13 lossy-shrinking fallback.",
		func() uint64 { return c.Stats().LossyFallbacks })

	reg.CounterFunc("incxml_source_attempts_total",
		"Source calls forwarded to the wrapped clients (all sources).",
		func() uint64 { return c.Stats().Source.Attempts })
	reg.CounterFunc("incxml_source_retries_total",
		"Source-call attempts beyond the first (all sources).",
		func() uint64 { return c.Stats().Source.Retries })
	reg.CounterFunc("incxml_source_failures_total",
		"Source calls that failed after all retries (all sources).",
		func() uint64 { return c.Stats().Source.Failures })
	reg.CounterFunc("incxml_source_breaker_opens_total",
		"Circuit-breaker closed/half-open to open transitions (all sources).",
		func() uint64 { return c.Stats().Source.BreakerOpens })
	reg.CounterFunc("incxml_source_rejections_total",
		"Source calls rejected outright by an open breaker (all sources).",
		func() uint64 { return c.Stats().Source.Rejections })

	// Scatter-gather front-door counters.
	reg.CounterFunc("incxml_shard_scatters_total",
		"Cluster-wide scatter-gather queries served.",
		c.scatters.Load)
	reg.CounterFunc("incxml_shard_scatter_degraded_total",
		"Scatters in which at least one shard degraded.",
		c.scatterDegraded.Load)

	// Per-shard breakdown.
	sources := reg.NewGaugeVec("incxml_shard_sources",
		"Sources the consistent-hash ring assigned to a shard.", "shard")
	down := reg.NewGaugeVec("incxml_shard_down",
		"1 while a shard is administratively down, 0 otherwise.", "shard")
	brk := reg.NewGaugeVec("incxml_shard_breakers_open",
		"Sources of a shard whose circuit breaker is open or half-open.", "shard")
	reqs := reg.NewCounterVec("incxml_shard_requests_total",
		"Explore, local, complete and extended operations routed to a shard's sources, scatter sub-requests included.", "shard")
	degr := reg.NewCounterVec("incxml_shard_degraded_total",
		"Shard-routed operations that failed (a failed explore included) or answered less than exactly.", "shard")
	for _, g := range c.groups {
		g := g
		label := strconv.Itoa(g.id)
		sources.Func(func() float64 { return float64(len(g.Sources())) }, label)
		down.Func(func() float64 {
			if g.Down() {
				return 1
			}
			return 0
		}, label)
		brk.Func(func() float64 { return float64(g.BreakersOpen()) }, label)
		reqs.Func(g.requests.Load, label)
		degr.Func(g.degraded.Load, label)

		g.wh.ExposeSourceMetrics(reg)
	}
}
