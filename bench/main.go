// Command bench is the repository benchmark: three seeded closed-loop
// workloads driven over loopback HTTP against a real serve.Server with
// production defaults, reporting end-to-end metrics (tracing off),
// per-layer counters from the server's own /metrics, a traced re-run that
// splits every request's latency over the layers it crossed, and oracle
// checks of the answers served. See README.md for the metric definitions.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload mixed|acquire|hot-read] [-seed n] [-seconds 30] [-trace 0|1]
//	                  [-open-rate sessions/s] [-json results.jsonl] [-spans spans.jsonl]
//	bash bench/run.sh compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. BENCHMARK.json's runner
// asks for the two sets in separate runs, so the flag selects both the
// result and whether the traced pass runs at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"incxml/internal/serve"
	"incxml/internal/store"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are the gated end-to-end metrics, emitted on every workload
// (BENCHMARK.json end_to_end lists the same names and units).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_ops_s", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"explore_p50_ms", "ms", "lower"},
	{"explore_p90_ms", "ms", "lower"},
	{"local_p50_ms", "ms", "lower"},
	{"local_p90_ms", "ms", "lower"},
	{"complete_p90_ms", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// e2eDiagnostics are printed and recorded but not gated: routes some
// workloads never send, per-route p99s, the failure fractions, which are
// zero on a healthy run, and how much of the window the hypervisor spoiled
// (steal.go).
var e2eDiagnostics = []metricDef{
	{"steal_frac", "fraction", "lower"},
	{"quiet_frac", "fraction", "higher"},
	{"ext_p90_ms", "ms", "lower"},
	{"scatter_p90_ms", "ms", "lower"},
	{"explore_p99_ms", "ms", "lower"},
	{"local_p99_ms", "ms", "lower"},
	{"complete_p99_ms", "ms", "lower"},
	{"ext_p99_ms", "ms", "lower"},
	{"scatter_p99_ms", "ms", "lower"},
	{"fail_frac", "fraction", "lower"},
	{"degraded_frac", "fraction", "lower"},
}

// layerMetrics are the per-layer metrics measured on every workload
// (BENCHMARK.json per_layer lists the same names and units).
var layerMetrics = []metricDef{
	{"client.net_us", "us", "lower"},
	{"serve.queue_us", "us", "lower"},
	{"webhouse.source_us", "us", "lower"},
	{"webhouse.fold_us", "us", "lower"},
	{"store.append_us", "us", "lower"},
	{"webhouse.local_us", "us", "lower"},
	{"webhouse.certify_us", "us", "lower"},
	{"serve.other_us", "us", "lower"},
	{"webhouse.answer_cache_hit_ratio", "ratio", "higher"},
	{"answer.decision_cache_hit_ratio", "ratio", "higher"},
	{"itree.membership_cache_hit_ratio", "ratio", "higher"},
	{"webhouse.steps_per_local", "steps", "lower"},
	{"webhouse.lossy_fallbacks", "count", "lower"},
	{"refine.lossy_frac", "fraction", "lower"},
	{"certify.full_frac", "fraction", "higher"},
	{"certify.completeness_mean", "ratio", "higher"},
	{"faulty.attempts_per_call", "attempts", "lower"},
	{"faulty.retries", "count", "lower"},
	{"faulty.breaker_opens", "count", "lower"},
	{"store.wal_bytes_per_append", "bytes", "lower"},
	{"store.snapshots", "count", "lower"},
	{"engine.tasks_per_op", "tasks", "lower"},
	{"intern.hit_ratio", "ratio", "higher"},
	{"extquery.unknown_frac", "fraction", "lower"},
	{"reductions.unknown_frac", "fraction", "lower"},
	{"serve.shed", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"store.recover_s", "s", "lower"},
	{"fail_frac", "fraction", "lower"},
	{"degraded_frac", "fraction", "lower"},
	{"trace.goodput_ratio", "ratio", "higher"},
}

// layerDiagnostics are per-layer numbers that are zero by construction on
// some workload (no extension route on acquire, no store during the
// in-memory mixed window), so they are printed but not listed.
var layerDiagnostics = []metricDef{
	{"webhouse.extended_us", "us", "lower"},
	{"store.snapshot_ms_mean", "ms", "lower"},
}

const (
	// runSeconds is the length of the measured window, BENCHMARK.json's
	// run_seconds; the traced window lasts a third of it.
	runSeconds = 30
	// repeats is how many times a run sets its server up (setup_s is the
	// median; the last server is the one measured) and restarts it from its
	// data directory (store.recover_s is the fastest). Interference only
	// ever slows a restart down: on one recovered state, the median of 21
	// restarts moved by about 15% from one round to the next while the
	// minimum moved by about 4%.
	repeats = 21
	// walTail is the WAL length, in records past the last snapshot, the
	// recovery probe restarts from; below the default snapshot cadence, so
	// the tail never rotates.
	walTail = 48
	// minRouteSamples is the sample count below which a route's latency is
	// reported as too thin to read.
	minRouteSamples = 300
)

// options are one invocation's settings.
type options struct {
	seed int64
	// seconds is the length of the measured window.
	seconds float64
	// warmup and repeats override the workload's warm-up op count and the
	// set-up and restart repetitions when positive (the smoke test runs
	// short).
	warmup, repeats int
	trace           bool
	openRate        float64
	spans           string
}

// result is one workload run; -json appends it as one line.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	E2E       map[string]float64 `json:"e2e"`
	Routes    map[string]int     `json:"routes"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Checks    checkReport        `json:"checks"`
	Stages    []stageRow         `json:"stages,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run one workload (mixed, acquire, hot-read); default all three")
	seed := fs.Int64("seed", 1, "seed of the generated request streams")
	seconds := fs.Float64("seconds", runSeconds, "length of each workload's measured window")
	trace := fs.Int("trace", 1, "1 also runs the traced pass and prints the per-layer metrics as the JSON result")
	openRate := fs.Float64("open-rate", 0, "diagnostic: drive Poisson session arrivals at this rate (sessions/s) instead of the closed loop")
	jsonOut := fs.String("json", "", "append one JSON result line per workload to this file (input of compare)")
	spans := fs.String("spans", filepath.Join(os.TempDir(), "incxml-bench-spans.jsonl"), "write the traced run's spans here as JSON lines")
	fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	specs := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		specs = []*spec{w}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, openRate: *openRate, spans: *spans}
	os.Exit(run(specs, o, *jsonOut, os.Stdout))
}

// run executes the workloads and prints the report, ending with the JSON
// result line. It returns the process exit code.
func run(specs []*spec, o options, jsonOut string, out io.Writer) int {
	if o.openRate > 0 {
		return runOpenLoop(specs, o, out)
	}
	if o.trace {
		if err := os.WriteFile(o.spans, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, w := range specs {
		res, err := runWorkload(w, o, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		if jsonOut != "" {
			if err := appendJSON(jsonOut, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		defs, values := e2eMetrics, res.E2E
		if o.trace {
			defs, values = layerMetrics, res.Layers
		}
		for _, d := range defs {
			key := d.name
			if len(specs) > 1 {
				key = w.name + "." + d.name
			}
			final.Metrics[key] = map[string]any{"value": values[d.name], "unit": d.unit}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(out, string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

func appendJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env is one running server behind a loopback HTTP listener.
type env struct {
	srv *serve.Server
	ts  *httptest.Server
	t   *target
	dir string // data directory, "" when in memory
}

func (e *env) close() {
	e.t.client.CloseIdleConnections()
	e.ts.Close()
	// Already closed after a recovery probe; closing twice is a no-op.
	_ = e.srv.Cluster().CloseStores()
}

// startEnv builds a server for the workload, instruments it when tr is
// set, and runs the set-up acquisition. It returns the set-up time:
// serve.New plus the acquisition.
func startEnv(w *spec, tmp string, checks *checker, tr *tracer) (*env, time.Duration, error) {
	e := &env{}
	if w.durable {
		dir, err := os.MkdirTemp(tmp, "data-")
		if err != nil {
			return nil, 0, err
		}
		e.dir = dir
	}
	start := time.Now()
	srv, err := serve.New(w.serveConfig(e.dir, tr != nil))
	if err != nil {
		return nil, 0, err
	}
	e.srv = srv
	handler := srv.Handler()
	if tr != nil {
		tr.instrument(srv)
		handler = tr.middleware(handler)
	}
	e.ts = httptest.NewServer(handler)
	e.t = &target{url: e.ts.URL, client: newHTTPClient(), checks: checks}
	for _, s := range runSerial(e.t, w.setup) {
		if !s.ok() {
			e.close()
			return nil, 0, fmt.Errorf("set-up acquisition failed with status %d", s.status)
		}
	}
	return e, time.Since(start), nil
}

// runWorkload runs one workload: repeated set-up, warm-up, the measured
// window, the recovery probe, and (with o.trace) the traced re-run.
func runWorkload(w *spec, o options, out io.Writer) (*result, error) {
	tmp, err := os.MkdirTemp("", "incxml-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	res := &result{Workload: w.name, Seed: o.seed, E2E: map[string]float64{}, Routes: map[string]int{},
		Layers: map[string]float64{}, Checks: checkReport{Checked: map[string]int{}, Mismatches: map[string]int{}}}
	checks := newChecker()

	var setups []float64
	var e *env
	reps := repeats
	if o.repeats > 0 {
		reps = o.repeats
	}
	for i := 0; i < reps; i++ {
		if e != nil {
			e.close()
		}
		// Each timed set-up starts from a collected heap, so a collection
		// owed to earlier garbage does not land inside it.
		runtime.GC()
		var d time.Duration
		if e, d, err = startEnv(w, tmp, checks, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer e.close()
	res.E2E["setup_s"] = median(setups)

	warmup := w.warmup
	if o.warmup > 0 {
		warmup = o.warmup
	}
	next := w.stream(o.seed)
	warm := runClosed(e.t, next, stop{limit: int64(warmup)})
	res.count(warm)
	// The live heap is read after the warm-up's fixed op count, not after
	// the timed window: the server's caches fill with every op served, so
	// at the window's end a faster commit would read as a bigger heap. The
	// warm-up's samples are dead and the checker releases the bodies it
	// held, so the heap read is the server's.
	checks.drain(&res.Checks)
	if res.E2E["live_heap_mb"], err = liveHeapMB(checks); err != nil {
		return nil, err
	}
	before, err := scrape(e.t.client, e.t.url)
	if err != nil {
		return nil, err
	}
	gc0 := gcPauses()
	win := o.measure(e.t, next, 1)
	after, err := scrape(e.t.client, e.t.url)
	if err != nil {
		return nil, err
	}
	gc1 := gcPauses()
	res.count(win.all)
	goodput := res.endToEnd(win)
	for k, v := range layerCounters(after.sub(before), len(win.all)) {
		res.Layers[k] = v
	}
	res.Layers["runtime.gc_pause_ms"] = gcPauseMs(gc0, gc1)
	res.Layers["fail_frac"] = res.E2E["fail_frac"]
	res.Layers["degraded_frac"] = res.E2E["degraded_frac"]

	recoverS, err := recoveryProbe(w, e, tmp, reps, res)
	if err != nil {
		return nil, err
	}
	res.Layers["store.recover_s"] = recoverS

	if o.trace {
		if err := tracedRun(w, o, tmp, checks, goodput, warmup, res); err != nil {
			return nil, err
		}
	}
	checks.drain(&res.Checks)
	res.Correct = res.Checks.total() == 0
	printReport(out, w, o, res, win, warmup)
	return res, nil
}

// window is one timed phase of the closed loop: every sample, and the
// samples that completed in its quiet slices (see steal.go).
type window struct {
	all, quiet       []sample
	length, quietLen time.Duration
	// stealFrac is the share of the window's CPU time the hypervisor took.
	stealFrac float64
}

// measure runs the closed loop on t until the quiet part of the window
// lasts share of the run length.
func (o options) measure(t *target, next func() session, share float64) window {
	m := startStealMeter(time.Duration(o.seconds * share * float64(time.Second)))
	all := runClosed(t, next, stop{full: &m.full})
	m.end()
	quiet, quietLen := m.quiet(all)
	return window{all: all, quiet: quiet, length: m.at[len(m.at)-1].Sub(m.at[0]), quietLen: quietLen,
		stealFrac: m.stealFrac()}
}

// liveHeapMB collects the heap and returns what stays live, in MiB. The
// checker must be drained first: the bodies it holds are the harness's.
func liveHeapMB(checks *checker) (float64, error) {
	if n := checks.retained(); n > 0 {
		return 0, fmt.Errorf("live heap read while the checker holds %d answers", n)
	}
	// The first collection only moves what the sync.Pools hold (encoders,
	// buffers) to their victim caches; the second frees it. After one, the
	// same seed read up to 8.5% apart from run to run.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), nil
}

// count adds a phase's ops to the attempted and failed totals.
func (r *result) count(samples []sample) {
	r.Attempted += len(samples)
	for _, s := range samples {
		if !s.ok() {
			r.Failed++
		}
	}
}

// endToEnd fills the latency, goodput and failure metrics from the quiet
// part of the measured window and returns the goodput.
func (r *result) endToEnd(win window) float64 {
	samples := win.quiet
	ok, degraded := 0, 0
	for _, s := range samples {
		if s.ok() {
			ok++
			if s.degraded {
				degraded++
			}
		}
	}
	goodput := float64(ok) / win.quietLen.Seconds()
	r.E2E["steal_frac"] = win.stealFrac
	r.E2E["quiet_frac"] = ratio(win.quietLen.Seconds(), win.length.Seconds())
	all := okLatencies(samples)
	r.E2E["goodput_ops_s"] = goodput
	r.E2E["p50_ms"] = percentile(all, 0.50)
	r.E2E["p99_ms"] = percentile(all, 0.99)
	r.E2E["fail_frac"] = ratio(float64(len(samples)-ok), float64(len(samples)))
	r.E2E["degraded_frac"] = ratio(float64(degraded), float64(ok))
	for _, f := range routeFamilies {
		lat := okLatencies(samples, f.routes...)
		r.Routes[f.name] = len(lat)
		r.E2E[f.name+"_p50_ms"] = percentile(lat, 0.50)
		r.E2E[f.name+"_p90_ms"] = percentile(lat, 0.90)
		r.E2E[f.name+"_p99_ms"] = percentile(lat, 0.99)
	}
	return goodput
}

// routeFamilies group the server's routes for the per-route metrics.
var routeFamilies = []struct {
	name   string
	routes []string
}{
	{"explore", []string{"explore"}},
	{"local", []string{"local"}},
	{"complete", []string{"complete"}},
	{"ext", []string{"ext_query", "ext_reduction"}},
	{"scatter", []string{"scatter_local"}},
}

// recoveryProbe measures a warm restart from the state the workload built.
// The in-memory workload first opens stores on its live server. Untimed
// explores then bring the WAL to a snapshot rotation plus walTail records,
// so every restart loads snapshots and replays the same tail length. The
// stores close without a final snapshot, and the result is the fastest of
// restarts calls of serve.New on the data directory. The first restart
// must reproduce the encoded knowledge of every source byte for byte.
func recoveryProbe(w *spec, e *env, tmp string, restarts int, res *result) (float64, error) {
	cluster := e.srv.Cluster()
	dir := e.dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp(tmp, "data-"); err != nil {
			return 0, err
		}
		if _, err := cluster.OpenStores(dir, store.Options{}); err != nil {
			return 0, err
		}
	}
	st := cluster.Stores()[0]
	var topUp []sample
	i := 0
	for rotated := false; !rotated; i++ {
		if i > 4*store.DefaultSnapEvery {
			return 0, fmt.Errorf("recovery probe: no snapshot rotation after %d explores", i)
		}
		size := st.WALSize()
		topUp = append(topUp, runSerial(e.t, []*request{topUpRequest(i)})...)
		rotated = st.WALSize() < size
	}
	for n := 0; n < walTail; n++ {
		topUp = append(topUp, runSerial(e.t, []*request{topUpRequest(i + n)})...)
	}
	res.count(topUp)
	want := map[string][]byte{}
	for _, src := range cluster.Sources() {
		know, err := cluster.Knowledge(src)
		if err != nil {
			return 0, err
		}
		want[src] = store.EncodeIncomplete(know)
	}
	if err := cluster.CloseStores(); err != nil {
		return 0, err
	}
	var times []float64
	for k := 0; k < restarts; k++ {
		runtime.GC()
		start := time.Now()
		srv, err := serve.New(w.serveConfig(dir, false))
		if err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if k == 0 {
			for src, b := range want {
				know, err := srv.Cluster().Knowledge(src)
				same := err == nil && string(store.EncodeIncomplete(know)) == string(b)
				res.Checks.add("recovery", 1, !same, fmt.Sprintf("recovery: knowledge of %s differs after restart", src))
			}
			if rec := srv.Recovery(); rec == nil || len(rec.Quarantined) > 0 || rec.CorruptRecordsDropped > 0 {
				res.Checks.add("recovery", 1, true, fmt.Sprintf("recovery: unclean restart %+v", rec))
			}
		}
		if err := srv.Cluster().CloseStores(); err != nil {
			return 0, err
		}
	}
	return minOf(times), nil
}

// tracedRun re-runs the workload on a fresh, traced server: the same
// stream, warm-up untagged, then the traced window.
func tracedRun(w *spec, o options, tmp string, checks *checker, untracedGoodput float64,
	warmup int, res *result) error {
	tr := newTracer()
	e, _, err := startEnv(w, tmp, checks, tr)
	if err != nil {
		return err
	}
	defer e.close()
	next := w.stream(o.seed)
	res.count(runClosed(e.t, next, stop{limit: int64(warmup)}))
	traced := *e.t
	traced.tr = tr
	win := o.measure(&traced, next, 1.0/3)
	res.count(win.all)
	ok := 0
	for _, s := range win.quiet {
		if s.ok() {
			ok++
		}
	}
	reqs := tr.completed()
	res.Stages = stageTables(w.name, reqs)
	for k, v := range stageMeans(reqs) {
		res.Layers[k] = v
	}
	res.Layers["trace.goodput_ratio"] = ratio(float64(ok)/win.quietLen.Seconds(), untracedGoodput)
	f, err := os.OpenFile(o.spans, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printReport prints one workload's human-readable report.
func printReport(out io.Writer, w *spec, o options, r *result, win window, warmup int) {
	fmt.Fprintf(out, "== workload %s, seed %d: %s\n", w.name, o.seed, w.why)
	fmt.Fprintf(out, "   %d measured ops in %.2f s after %d warm-up ops; %d closed-loop clients\n",
		len(win.all), win.length.Seconds(), warmup, clients)
	fmt.Fprintf(out, "   %.2f%% of the window's CPU time stolen by the hypervisor; metrics over the %d ops of its %.1f quiet s\n",
		100*win.stealFrac, len(win.quiet), win.quietLen.Seconds())
	fmt.Fprintln(out, "end-to-end metrics (tracing off):")
	for _, d := range e2eMetrics {
		fmt.Fprintf(out, "  %-34s %14.6g %-8s%s\n", d.name, r.E2E[d.name], d.unit, thin(r, d.name))
	}
	fmt.Fprintln(out, "end-to-end diagnostics (not gated):")
	for _, d := range e2eDiagnostics {
		fmt.Fprintf(out, "  %-34s %14.6g %-8s%s\n", d.name, r.E2E[d.name], d.unit, thin(r, d.name))
	}
	fmt.Fprintln(out, "per-layer metrics (counters: /metrics delta over the measured window; *_us: traced run):")
	for _, d := range append(append([]metricDef(nil), layerMetrics...), layerDiagnostics...) {
		if v, ok := r.Layers[d.name]; ok {
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if len(r.Stages) > 0 {
		printStages(out, r.Stages)
	}
	fmt.Fprintf(out, "correctness: %d answers re-checked %v, mismatches %v\n",
		sumInts(r.Checks.Checked), r.Checks.Checked, r.Checks.Mismatches)
	for _, n := range r.Checks.Notes {
		fmt.Fprintln(out, "  mismatch:", n)
	}
}

// thin flags a route metric measured on fewer than minRouteSamples ops.
func thin(r *result, metric string) string {
	for _, f := range routeFamilies {
		if strings.HasPrefix(metric, f.name+"_") && r.Routes[f.name] < minRouteSamples {
			return fmt.Sprintf("  (only %d samples)", r.Routes[f.name])
		}
	}
	return ""
}

func sumInts(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// printStages prints the per-route stage tables: mean self time per stage
// in ms for the p50 and p99 bands, the band's mean client latency, and the
// attributed share 1 - serve.other/total.
func printStages(out io.Writer, rows []stageRow) {
	fmt.Fprintln(out, "stage tables (traced run; mean self time per request, ms):")
	fmt.Fprintf(out, "  %-14s %-4s %6s %9s", "route", "band", "n", "total")
	for _, s := range stageNames {
		fmt.Fprintf(out, " %*s", len(s), s)
	}
	fmt.Fprintf(out, " %10s\n", "attributed")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-14s %-4s %6d %9.4f", r.Route, r.Band, r.N, r.TotalMs)
		for _, s := range stageNames {
			fmt.Fprintf(out, " %*.4f", len(s), r.StagesMs[s])
		}
		fmt.Fprintf(out, " %9.1f%%\n", 100*r.Attributed)
	}
}

// runOpenLoop is the -open-rate diagnostic: per workload, set up and warm
// up as usual, then drive Poisson session arrivals for the run length and
// report latency from the due time and the generator's lateness. It is not
// an end-to-end metric; see README.md.
func runOpenLoop(specs []*spec, o options, out io.Writer) int {
	metrics := map[string]map[string]any{}
	attempted, failed := 0, 0
	for _, w := range specs {
		tmp, err := os.MkdirTemp("", "incxml-bench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		e, _, err := startEnv(w, tmp, newChecker(), nil)
		if err != nil {
			os.RemoveAll(tmp)
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		next := w.stream(o.seed)
		runClosed(e.t, next, stop{limit: int64(w.warmup)})
		d := time.Duration(o.seconds * float64(time.Second))
		res := runOpen(e.t, next, o.openRate, o.seed, d)
		e.close()
		os.RemoveAll(tmp)
		lat := okLatencies(res.samples)
		sort.Slice(res.lateness, func(i, j int) bool { return res.lateness[i] < res.lateness[j] })
		ok := len(lat)
		attempted += len(res.samples)
		failed += len(res.samples) - ok
		m := map[string]float64{
			"open_goodput_ops_s": float64(ok) / res.elapsed.Seconds(),
			"open_p50_ms":        percentile(lat, 0.50),
			"open_p99_ms":        percentile(lat, 0.99),
			"lateness_p50_ms":    percentile(res.lateness, 0.50),
			"lateness_p99_ms":    percentile(res.lateness, 0.99),
			"lateness_max_ms":    percentile(res.lateness, 1),
		}
		fmt.Fprintf(out, "== open loop %s, seed %d: %.1f sessions/s for %s, %d sessions, %d ops\n",
			w.name, o.seed, o.openRate, d, res.sessions, len(res.samples))
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(out, "  %-20s %12.6g\n", k, m[k])
			key := k
			if len(specs) > 1 {
				key = w.name + "." + k
			}
			unit := "ms"
			if strings.HasSuffix(k, "_ops_s") {
				unit = "ops/s"
			}
			metrics[key] = map[string]any{"value": m[k], "unit": unit}
		}
	}
	b, _ := json.Marshal(map[string]any{"correct": true, "attempted": attempted, "failed": failed, "metrics": metrics})
	fmt.Fprintln(out, string(b))
	return 0
}
