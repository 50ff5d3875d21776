package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"strings"

	"incxml/internal/obs"
)

// counters is one scrape of GET /metrics, flattened to sample key
// (`name{label="value",...}`) -> value.
type counters map[string]float64

func scrape(client *http.Client, url string) (counters, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	fams, err := obs.ParsePrometheus(string(text))
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := counters{}
	for _, f := range fams {
		for k, v := range f.Samples {
			out[k] = v
		}
	}
	return out, nil
}

// sub returns the per-key change from before to c.
func (c counters) sub(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the samples of family whose key contains every label pair
// (each written `name="value"`).
func (c counters) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range c {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounters derives the per-layer counter metrics from a /metrics delta
// over a window of ops operations.
func layerCounters(d counters, ops int) map[string]float64 {
	hitRatio := func(family, label string) float64 {
		h, m := d.sum(family+"_hits_total", label), d.sum(family+"_misses_total", label)
		return ratio(h, h+m)
	}
	observes := d.sum("incxml_refine_observe_total")
	certs := d.sum("incxml_certify_full_total") + d.sum("incxml_certify_partial_total") +
		d.sum("incxml_certify_unknown_total")
	attempts, retries := d.sum("incxml_source_attempts_total"), d.sum("incxml_source_retries_total")
	tractable := 0.0
	tractableUnknown := 0.0
	for _, class := range []string{"ps", "branching", "pathre"} {
		l := `class="` + class + `"`
		tractable += d.sum("incxml_webhouse_ext_verdicts_total", l)
		tractableUnknown += d.sum("incxml_webhouse_ext_verdicts_total", l, `verdict="unknown"`)
	}
	return map[string]float64{
		"webhouse.answer_cache_hit_ratio":  hitRatio("incxml_webhouse_answer_cache", ""),
		"answer.decision_cache_hit_ratio":  hitRatio("incxml_cache", `cache="decision"`),
		"itree.membership_cache_hit_ratio": hitRatio("incxml_cache", `cache="membership"`),
		"webhouse.steps_per_local": ratio(d.sum("incxml_webhouse_budget_steps_used_sum"),
			d.sum("incxml_webhouse_budget_steps_used_count")),
		"webhouse.lossy_fallbacks": d.sum("incxml_webhouse_lossy_fallbacks_total"),
		"refine.lossy_frac":        ratio(d.sum("incxml_refine_observe_total", `outcome="lossy"`), observes),
		"certify.full_frac":        ratio(d.sum("incxml_certify_full_total"), certs),
		"certify.completeness_mean": ratio(d.sum("incxml_completeness_ratio_sum"),
			d.sum("incxml_completeness_ratio_count")) / 100,
		"faulty.attempts_per_call": ratio(attempts, attempts-retries),
		"faulty.retries":           retries,
		"faulty.breaker_opens":     d.sum("incxml_source_breaker_opens_total"),
		"store.wal_bytes_per_append": ratio(d.sum("incxml_store_wal_bytes_total"),
			d.sum("incxml_store_wal_appends_total")),
		"store.snapshots": d.sum("incxml_store_snapshots_total"),
		"store.snapshot_ms_mean": ratio(d.sum("incxml_store_snapshot_duration_micros_sum"),
			d.sum("incxml_store_snapshot_duration_micros_count")) / 1000,
		"engine.tasks_per_op":   ratio(d.sum("incxml_engine_tasks_total"), float64(ops)),
		"intern.hit_ratio":      hitRatio("incxml_intern", ""),
		"extquery.unknown_frac": ratio(tractableUnknown, tractable),
		"reductions.unknown_frac": ratio(d.sum("incxml_serve_reduction_verdicts_total", `verdict="unknown"`),
			d.sum("incxml_serve_reduction_verdicts_total")),
		"serve.shed": d.sum("incxml_serve_shed_total"),
	}
}

// gcPauseName is the runtime/metrics histogram of stop-the-world pause
// latencies caused by the garbage collector.
const gcPauseName = "/sched/pauses/total/gc:seconds"

// gcPauses returns the runtime's GC pause histogram.
func gcPauses() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: gcPauseName}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return &metrics.Float64Histogram{}
	}
	return s[0].Value.Float64Histogram()
}

// gcPauseMs estimates the total GC pause between two histogram reads in
// milliseconds, counting each pause at its bucket's midpoint (the open
// first and last buckets at their finite edge).
func gcPauseMs(before, after *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, n := range after.Counts {
		if i < len(before.Counts) {
			n -= before.Counts[i]
		}
		if n == 0 {
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		total += float64(n) * mid
	}
	return total * 1000
}
