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

// ExposeSourceMetrics registers the per-source labeled children (live
// breaker state) on reg, for the sources known at call time. Because label
// values are source names and webhouses in one process own disjoint source
// sets, a sharded cluster calls this for each of its webhouses on one
// shared registry; the unlabeled totals are summed over shards by
// shard.Cluster.ExposeMetrics instead, since per-webhouse func-backed
// totals would shadow each other (first registration wins in obs).
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
