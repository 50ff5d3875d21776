package webhouse

import (
	"incxml/internal/faulty"
	"incxml/internal/obs"
)

// stepsUsed is a process-wide histogram of the budget steps one local
// computation charged before finishing (or exhausting). Read together with
// `incxml_budget_exhausted_total`: the histogram says how close typical
// requests run to the -budget allowance, the counter says how many fell off
// the edge.
var stepsUsed = obs.Default().NewHistogram(
	"incxml_webhouse_budget_steps_used",
	"Budget steps charged per local computation (log2 buckets).")

// breakerOpen is implemented by clients exposing live breaker state
// (faulty.RetryClient).
type breakerOpen interface{ BreakerOpen() bool }

// sourceStats aggregates the reliability counters of every repository whose
// client tracks them (the Source field of Stats).
func (wh *Webhouse) sourceStats() faulty.ClientStats {
	wh.mu.RLock()
	repos := make([]*Repository, 0, len(wh.repos))
	for _, r := range wh.repos {
		repos = append(repos, r)
	}
	wh.mu.RUnlock()
	var src faulty.ClientStats
	for _, r := range repos {
		if cs, ok := r.Client().(clientStats); ok {
			src.Add(cs.Stats())
		}
	}
	return src
}

// ExposeMetrics registers this webhouse's serving counters on reg as
// func-backed, scrape-time views over the same atomics Stats() reads — by
// construction /stats and /metrics can never disagree. Per-source children
// (live breaker state) are registered for the sources known at call time,
// so expose after Register-ing the fleet. Metrics are per-webhouse: expose
// each instance on its own registry (the serving layer does this) and keep
// the process-global families — engine pool, decision memo, decider
// verdicts — on obs.Default(), which the instance registry Includes.
func (wh *Webhouse) ExposeMetrics(reg *obs.Registry) {
	reg.CounterFunc("incxml_webhouse_answer_cache_hits_total",
		"Local/extended answers served from the answers memoized on the knowledge snapshots.",
		wh.cacheHits.Load)
	reg.CounterFunc("incxml_webhouse_answer_cache_misses_total",
		"Local/extended answer lookups that found no answer memoized on the knowledge snapshot.",
		wh.cacheMisses.Load)
	reg.CounterFunc("incxml_webhouse_degraded_answers_total",
		"AnswerComplete calls that fell back to the approximate local answer (source unavailable).",
		wh.degraded.Load)
	reg.CounterFunc("incxml_webhouse_budget_exhaustions_total",
		"Local computations whose step or deadline budget ran out.",
		wh.budgetExhaustions.Load)
	reg.CounterFunc("incxml_webhouse_lossy_fallbacks_total",
		"Computations recovered through the Proposition 3.13 lossy-shrinking fallback.",
		wh.lossyFallbacks.Load)

	reg.CounterFunc("incxml_source_attempts_total",
		"Source calls forwarded to the wrapped clients (all sources).",
		func() uint64 { return wh.sourceStats().Attempts })
	reg.CounterFunc("incxml_source_retries_total",
		"Source-call attempts beyond the first (all sources).",
		func() uint64 { return wh.sourceStats().Retries })
	reg.CounterFunc("incxml_source_failures_total",
		"Source calls that failed after all retries (all sources).",
		func() uint64 { return wh.sourceStats().Failures })
	reg.CounterFunc("incxml_source_breaker_opens_total",
		"Circuit-breaker closed/half-open to open transitions (all sources).",
		func() uint64 { return wh.sourceStats().BreakerOpens })
	reg.CounterFunc("incxml_source_rejections_total",
		"Source calls rejected outright by an open breaker (all sources).",
		func() uint64 { return wh.sourceStats().Rejections })

	wh.ExposeSourceMetrics(reg)
}

// ExposeSourceMetrics registers only the per-source labeled children (live
// breaker state) on reg. Because label values are source names and
// webhouses in one process own disjoint source sets, a sharded cluster can
// call this for each of its webhouses on one shared registry — unlike
// ExposeMetrics, whose unlabeled func-backed totals are per-webhouse and
// would silently shadow each other (first registration wins in obs).
func (wh *Webhouse) ExposeSourceMetrics(reg *obs.Registry) {
	brk := reg.NewGaugeVec("incxml_source_breaker_open",
		"1 while a source's circuit breaker is open or half-open, 0 when closed.",
		"source")
	for _, name := range wh.Sources() {
		r, err := wh.Repo(name)
		if err != nil {
			continue
		}
		brk.Func(func() float64 {
			if bo, ok := r.Client().(breakerOpen); ok && bo.BreakerOpen() {
				return 1
			}
			return 0
		}, name)
	}
}
