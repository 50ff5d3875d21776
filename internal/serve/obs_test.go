package serve

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"incxml/internal/obs"
)

// scrapeMetrics GETs /metrics and returns the parsed families.
func scrapeMetrics(t *testing.T, s *Server) (string, map[string]*obs.ParsedFamily) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: status %d: %s", rec.Code, rec.Body.String())
	}
	fams, err := obs.ParsePrometheus(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics unparsable: %v\n%s", err, rec.Body.String())
	}
	return rec.Body.String(), fams
}

// driveTraffic exercises every serving path so the layered metric families
// all have live samples: local and complete answers on both sources, an
// acquisition, a budget-starved blow-up request, and a recovered panic.
func driveTraffic(t *testing.T, s *Server) {
	t.Helper()
	h := s.Handler()
	post(t, h, "/explore", catalogBody)
	post(t, h, "/local", catalogBody)
	post(t, h, "/local", catalogBody) // answer-cache hit
	post(t, h, "/complete", catalogBody)
	post(t, h, "/local?source=blowup", blowupBody(6))
	testHookHandler = func(r *http.Request) {
		if r.URL.Query().Get("boom") != "" {
			panic("metrics test fault")
		}
	}
	defer func() { testHookHandler = nil }()
	post(t, h, "/local?boom=1", catalogBody)
}

// TestMetricsFamiliesSpanTheStack is the exposition contract of ISSUE 5:
// one scrape of a freshly exercised server yields at least 20 distinct
// incxml_* families in valid Prometheus text format, with every layer of
// the stack — engine, deciders, budgets, faulty sources, webhouse, serving
// — represented.
func TestMetricsFamiliesSpanTheStack(t *testing.T) {
	s, err := New(Config{Timeout: 5 * time.Second, Budget: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	driveTraffic(t, s)
	s.Stats() // instantiate the shed-reason children read by Stats
	text, fams := scrapeMetrics(t, s)

	var incxml []string
	for name := range fams {
		if strings.HasPrefix(name, "incxml_") {
			incxml = append(incxml, name)
		}
	}
	sort.Strings(incxml)
	if len(incxml) < 20 {
		t.Errorf("scrape exposes %d incxml_* families, want >= 20:\n%s",
			len(incxml), strings.Join(incxml, "\n"))
	}
	// One representative family per layer must be present.
	for _, name := range []string{
		"incxml_engine_tasks_total",               // engine pool
		"incxml_cache_hits_total",                 // shared memo caches
		"incxml_answer_tri_total",                 // answer deciders
		"incxml_conj_empty_tri_total",             // conjunctive emptiness
		"incxml_itree_enum_total",                 // enumeration
		"incxml_refine_observe_total",             // refinement
		"incxml_budget_exhausted_total",           // budgets
		"incxml_source_attempts_total",            // faulty source clients
		"incxml_webhouse_answer_cache_hits_total", // webhouse
		"incxml_webhouse_budget_steps_used",       // steps histogram
		"incxml_serve_requests_total",             // serving layer
		"incxml_serve_request_micros",             // latency histogram
		"incxml_intern_hits_total",                // intern tables (hash-consing)
		"incxml_intern_entries",                   // intern table sizes
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("family %s missing from scrape:\n%s", name, text)
		}
	}
}

// TestStatsAgreesWithMetrics is the /stats ↔ /metrics unification
// regression test: every counter the two endpoints share must be equal,
// because both are views over the same atomics. Any duplicate bookkeeping
// reintroduced between them shows up here as a drift.
func TestStatsAgreesWithMetrics(t *testing.T) {
	s, err := New(Config{Timeout: 5 * time.Second, Budget: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	driveTraffic(t, s)
	st := s.Stats()
	snap := s.MetricsSnapshot()

	shared := map[string]float64{
		`incxml_serve_shed_total{reason="queue_full"}`:   float64(st.ShedQueueFull),
		`incxml_serve_shed_total{reason="wait_timeout"}`: float64(st.ShedWaitTimeout),
		`incxml_serve_panics_recovered_total`:            float64(st.RecoveredPanics),
		`incxml_serve_waiting`:                           float64(st.Waiting),
		`incxml_serve_inflight`:                          float64(st.Inflight),
		`incxml_webhouse_answer_cache_hits_total`:        float64(st.AnswerCacheHits),
		`incxml_webhouse_answer_cache_misses_total`:      float64(st.AnswerCacheMisses),
		`incxml_webhouse_degraded_answers_total`:         float64(st.DegradedAnswers),
		`incxml_webhouse_budget_exhaustions_total`:       float64(st.BudgetExhaustions),
		`incxml_webhouse_lossy_fallbacks_total`:          float64(st.LossyFallbacks),
		`incxml_source_attempts_total`:                   float64(st.Source.Attempts),
		`incxml_source_retries_total`:                    float64(st.Source.Retries),
		`incxml_source_failures_total`:                   float64(st.Source.Failures),
		`incxml_source_breaker_opens_total`:              float64(st.Source.BreakerOpens),
		`incxml_source_rejections_total`:                 float64(st.Source.Rejections),
		`incxml_cache_hits_total{cache="decision"}`:      float64(st.Decision.Hits),
		`incxml_cache_misses_total{cache="decision"}`:    float64(st.Decision.Misses),
		`incxml_cache_hits_total{cache="membership"}`:    float64(st.Membership.Hits),
		`incxml_engine_tasks_total`:                      float64(st.Engine.Tasks),
		`incxml_engine_workers`:                          float64(st.Engine.Workers),
	}
	for key, want := range shared {
		got, ok := snap[key]
		if !ok {
			t.Errorf("metrics snapshot lacks %s", key)
			continue
		}
		if got != want {
			t.Errorf("%s: /metrics reads %v, /stats reads %v", key, got, want)
		}
	}
}

// TestE20MetricsOverhead is the E20 smoke check (EXPERIMENTS.md): serving
// latency with the full metrics/tracing pipeline enabled must stay within
// 5% of the no-op recorder baseline at p99, plus a small absolute slack
// because 5% of a sub-millisecond p99 is below scheduler noise. The real
// E20 numbers are produced by cmd/benchrobust into BENCH_robustness.json;
// this test keeps the property from regressing silently.
func TestE20MetricsOverhead(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	run := func(enabled bool) time.Duration {
		prev := obs.SetEnabled(enabled)
		defer obs.SetEnabled(prev)
		s, err := New(Config{Timeout: 5 * time.Second, Budget: 50_000, Trace: enabled})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for i := 0; i < 10; i++ { // warm caches and code paths
			post(t, h, "/local", catalogBody)
		}
		lat := make([]time.Duration, n)
		for i := range lat {
			start := time.Now()
			rec := post(t, h, "/local", catalogBody)
			lat[i] = time.Since(start)
			if rec.Code != 200 {
				t.Fatalf("local request failed: %d", rec.Code)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[n*99/100]
	}
	disabled := run(false)
	enabled := run(true)
	slack := 2 * time.Millisecond
	limit := time.Duration(float64(disabled)*1.05) + slack
	if enabled > limit {
		t.Errorf("E20: p99 with metrics %v exceeds baseline %v * 1.05 + %v", enabled, disabled, slack)
	}
	t.Logf("E20: p99 enabled=%v disabled=%v (limit %v, n=%d)", enabled, disabled, limit, n)
}
