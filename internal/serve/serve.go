// Package serve is the HTTP serving layer over a webhouse: admission
// control, per-request deadlines, panic containment, multi-source routing,
// and one request pipeline for every answer route.
//
// The design goal is that the server stays responsive under any mix of
// traffic — including Theorem 3.6 blow-up instances whose exact evaluation
// is exponential — by composing three defenses:
//
//   - Admission control. At most MaxInflight requests execute handlers
//     concurrently; up to Queue more wait for a slot (within their own
//     deadline). Beyond that the server sheds load immediately: 429 when
//     the wait queue is full, 503 when a queued request's deadline expires
//     before a slot frees up. Both carry Retry-After.
//   - Budgets. Every admitted request runs under a context deadline, and
//     the webhouse charges a cooperative step budget (see internal/budget)
//     against it plus the configured per-request step limit, degrading to
//     sound approximations instead of running hot.
//   - Containment. A panicking handler is recovered, counted, and turned
//     into a 500; it never takes the process down.
//
// The middleware order is recover(deadline(admit(handler))): the recover
// wrapper is outermost so it also covers the admission path, and the
// deadline starts ticking while the request waits in the queue, so queue
// time counts against the client's patience rather than extending it.
//
// Inside the middleware every POST answer route is a small spec (route)
// run through one pipeline — decode | execute | render — so the body
// limit, strict decoding, the step cap and the mapping of failures to
// statuses exist once and cannot drift between routes.
//
// The server is also the process's observability surface (DESIGN.md
// "Observability"): GET /metrics exposes the per-server obs registry —
// which Includes the process-global families (engine pool, shared caches,
// decider verdicts, budget exhaustions) — in Prometheus text format; GET
// /stats renders the same counters as JSON for humans, reading the very
// same atomics, so the two endpoints can never disagree; /debug/pprof/* is
// mounted when Config.Pprof is set; and Config.Trace attaches a span trace
// to every wrapped request, echoed in the X-Trace response header. /stats
// and /metrics bypass admission so the server stays observable under
// overload.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"incxml/internal/budget"
	_ "incxml/internal/conj" // register the conjunctive-emptiness decider's metric families
	"incxml/internal/faulty"
	"incxml/internal/obs"
	"incxml/internal/shard"
	"incxml/internal/store"
	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxInflight = 32
	DefaultQueue       = 64
	DefaultTimeout     = 2 * time.Second
)

// Config parameterizes a Server.
type Config struct {
	// Timeout is the per-request deadline, including queue wait.
	Timeout time.Duration
	// MaxInflight bounds concurrently executing handlers.
	MaxInflight int
	// Queue bounds requests waiting for an execution slot.
	Queue int
	// Budget is the per-request step budget charged by the webhouse's
	// solvers; <= 0 leaves steps unlimited (the deadline still applies).
	Budget int64
	// FailRate, Latency and Seed configure the per-source fault injector
	// (zero values make it a no-op).
	FailRate float64
	Latency  time.Duration
	Seed     int64
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ on the
	// server's own mux (never the default mux).
	Pprof bool
	// Trace attaches an obs.Trace to every wrapped request and echoes its
	// stage summary in the X-Trace response header.
	Trace bool
	// Shards is the number of shard groups the source fleet is spread over
	// by the consistent-hash ring (default 1: the classic single-webhouse
	// server). Scatter routes fan out one sub-request per shard.
	Shards int
	// ExtraSources registers that many additional random catalog sources
	// (cat00, cat01, ...) beyond the two demonstration sources, so a
	// multi-shard server has a fleet worth scattering over.
	ExtraSources int
	// DataDir, when set, makes the server durable: each shard group
	// persists snapshots and a checksummed WAL under DataDir/shard-<i>, and
	// New recovers whatever state those directories hold before serving
	// (see internal/store). Empty = in-memory only, the prior behavior.
	DataDir string
	// SnapEvery is the store's snapshot cadence in WAL appends (0 = the
	// store default, negative = snapshot only on drain). Ignored without
	// DataDir.
	SnapEvery int
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.Queue <= 0 {
		c.Queue = DefaultQueue
	}
	return c
}

// Server serves a sharded webhouse cluster over HTTP. Create it with New.
type Server struct {
	cluster *shard.Cluster
	cfg     Config
	// sem is the execution semaphore: holding one slot = one inflight
	// handler. waiting counts requests blocked on a slot; it may briefly
	// exceed Queue during the check-then-wait window, which only sheds a
	// little early — never admits extra work. waiting is an obs.Gauge
	// because it is both a metric and live admission state (Gauge.Add keeps
	// working when metrics are disabled, by design).
	sem     chan struct{}
	waiting *obs.Gauge

	// reg is the per-server metrics registry; it Includes the process-wide
	// obs.Default() families, so one scrape sees the whole stack. The
	// serving counters below are the single source of truth: both /metrics
	// and Stats()/GET /stats read them.
	reg      *obs.Registry
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	shed     *obs.CounterVec
	panics   *obs.Counter
	// reductionVerdicts counts /ext/reduction decider outcomes by kind
	// ("3sat"/"dnf") and three-valued verdict.
	reductionVerdicts *obs.CounterVec

	// draining flips once Drain starts: answer routes shed with 503 while
	// /stats and /metrics stay up, so an orchestrator watching the drain
	// still sees the process. inWrap counts requests anywhere inside the
	// middleware stack — incremented before the draining check, so a
	// request that passed the check but has not yet touched the admission
	// semaphore is still visible to Drain's quiesce loop (draining on
	// sem/waiting alone would let such a request's mutation land after the
	// final snapshot flush and be lost). recovery is the startup recovery
	// report when Config.DataDir made the server durable (nil otherwise).
	draining atomic.Bool
	inWrap   atomic.Int64
	recovery *store.Recovery
}

// testHookHandler, when set, runs at handler entry (inside all middleware)
// with the admitted request. Tests use it to inject panics and stalls.
var testHookHandler func(*http.Request)

// testHookPostAdmit, when set, runs immediately after admission succeeds —
// in the window between acquiring the execution slot and entering the
// handler. The queue-slot-leak regression test panics here.
var testHookPostAdmit func()

// testHookPostDrainCheck, when set, runs after a request passed the
// draining check and before it touches the admission semaphore. The
// drain-race regression test parks a request here to prove Drain waits
// for requests that are not yet visible in sem/waiting.
var testHookPostDrainCheck func()

// New builds a server over the paper's two demonstration sources —
// "catalog" (the Figure 1 running example) and "blowup" (the Example 3.2
// world, whose refinement chains exhibit the Theorem 3.6 exponential
// blow-up) — plus Config.ExtraSources random catalogs, spread over
// Config.Shards shard groups by a consistent-hash ring. Each source sits
// behind a fault injector and a retrying client, so the serving path
// always exercises the failure model; each shard is an independent failure
// domain the scatter routes degrade per-shard.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cluster := shard.New(shard.Config{
		Shards: cfg.Shards,
		Budget: cfg.Budget,
		Injector: faulty.InjectorConfig{
			Latency: cfg.Latency, FailRate: cfg.FailRate, Seed: cfg.Seed,
		},
		Retry: faulty.RetryConfig{Seed: cfg.Seed},
	})
	reg := obs.NewRegistry()
	reg.Include(obs.Default())
	s := &Server{
		cluster: cluster,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInflight),
		reg:     reg,
		waiting: reg.NewGauge("incxml_serve_waiting",
			"Requests currently queued for an execution slot."),
		requests: reg.NewCounterVec("incxml_serve_requests_total",
			"Requests completed through the middleware stack, by route and status code.",
			"route", "code"),
		latency: reg.NewHistogramVec("incxml_serve_request_micros",
			"Request wall time in microseconds (queue wait included), by route (log2 buckets).",
			"route"),
		shed: reg.NewCounterVec("incxml_serve_shed_total",
			"Requests shed by admission control, by reason (queue_full = 429, wait_timeout = 503).",
			"reason"),
		panics: reg.NewCounter("incxml_serve_panics_recovered_total",
			"Handler panics recovered and converted to 500 responses."),
		reductionVerdicts: reg.NewCounterVec("incxml_serve_reduction_verdicts_total",
			"Reduction-decider verdicts served by /ext/reduction, by kind and three-valued verdict.",
			"kind", "verdict"),
	}
	reg.GaugeFunc("incxml_serve_inflight",
		"Handlers currently holding an execution slot.",
		func() float64 { return float64(len(s.sem)) })
	// Registration order is the seed order (catalog 0, blowup 1, extras
	// 2...): the cluster derives each source's injector and retry seeds
	// from Config.Seed plus its registration sequence number, preserving
	// the fault sequences of the pre-sharding server.
	cat, err := webhouse.NewSource("catalog", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		return nil, err
	}
	if _, err := cluster.Register(cat); err != nil {
		return nil, err
	}
	blow, err := webhouse.NewSource("blowup", workload.BlowupType(), workload.BlowupWorld())
	if err != nil {
		return nil, err
	}
	if _, err := cluster.Register(blow); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.ExtraSources; i++ {
		src, err := webhouse.NewSource(fmt.Sprintf("cat%02d", i),
			workload.CatalogType(), workload.RandomCatalog(4+i%5, cfg.Seed+int64(1000+i)))
		if err != nil {
			return nil, err
		}
		if _, err := cluster.Register(src); err != nil {
			return nil, err
		}
	}
	// Expose the cluster after the fleet is registered so the per-source
	// gauge children (breaker state) exist.
	cluster.ExposeMetrics(reg)
	// Durability last: recovery replays into the registered fleet, and the
	// journal must only see post-recovery mutations.
	if cfg.DataDir != "" {
		rec, err := cluster.OpenStores(cfg.DataDir, store.Options{SnapEvery: cfg.SnapEvery})
		if err != nil {
			return nil, fmt.Errorf("serve: open data dir %s: %w", cfg.DataDir, err)
		}
		s.recovery = rec
	}
	return s, nil
}

// Recovery reports what startup recovery did when the server is durable
// (Config.DataDir set); nil on an in-memory server.
func (s *Server) Recovery() *store.Recovery { return s.recovery }

// Drain gracefully shuts the serving layer down: new answer requests are
// shed with 503 + Retry-After (observability endpoints stay up), inflight
// and queued requests are allowed to finish within ctx, and on a durable
// server the final state is flushed as snapshots and the stores closed —
// after Drain returns nil, a warm restart from the same data directory
// reproduces the exact serving state. Safe to call once; the server does
// not come back from draining.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// Quiesce on the wrap-entry counter, not the admission state: it
	// covers the window between the draining check and the semaphore, so
	// no request can slip its mutation in after the final flush. Requests
	// arriving after the flag flipped also count until their 503 is
	// written, which only delays the flush by their (fast) shed path.
	for s.inWrap.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if s.recovery == nil {
		return nil
	}
	snapErr := s.cluster.SnapshotStores()
	if err := s.cluster.CloseStores(); err != nil && snapErr == nil {
		snapErr = err
	}
	return snapErr
}

// Registry returns the server's metrics registry (the /metrics source),
// for embedding and for reading samples with Registry.Snapshot.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cluster exposes the shard cluster behind the server (for tests,
// embedding, and chaos tooling that downs whole shards).
func (s *Server) Cluster() *shard.Cluster { return s.cluster }

// Webhouse exposes the webhouse owning the "catalog" source — on a
// single-shard server, the webhouse (for tests and embedding).
func (s *Server) Webhouse() *webhouse.Webhouse {
	g, err := s.cluster.Owner("catalog")
	if err != nil {
		return s.cluster.Group(0).Webhouse()
	}
	return g.Webhouse()
}

// Injector returns the fault injector of a registered source, or nil.
func (s *Server) Injector(source string) *faulty.Injector {
	inj, err := s.cluster.Injector(source)
	if err != nil {
		return nil
	}
	return inj
}

// Stats is the serving-layer counter snapshot: the webhouse counters plus
// admission-control and containment counters.
type Stats struct {
	webhouse.Stats
	// ShedQueueFull counts requests rejected with 429 because the wait
	// queue was full; ShedWaitTimeout counts queued requests whose
	// deadline expired before a slot freed (503).
	ShedQueueFull   uint64
	ShedWaitTimeout uint64
	// RecoveredPanics counts handler panics converted to 500s.
	RecoveredPanics uint64
	// Inflight and Waiting are instantaneous gauges.
	Inflight int
	Waiting  int64
	// RouteP50Micros and RouteP99Micros are per-route request-latency
	// quantiles in microseconds, estimated from the log2-bucketed serving
	// histogram (each value is the upper bound of the quantile's bucket).
	RouteP50Micros map[string]float64 `json:",omitempty"`
	RouteP99Micros map[string]float64 `json:",omitempty"`
}

// Stats returns a snapshot of the serving counters. Every field is a view
// over the obs registry backing GET /metrics (or over the same atomics the
// registry scrapes), so /stats and /metrics cannot disagree.
func (s *Server) Stats() Stats {
	st := Stats{
		Stats:           s.cluster.Stats(),
		ShedQueueFull:   s.shed.With("queue_full").Value(),
		ShedWaitTimeout: s.shed.With("wait_timeout").Value(),
		RecoveredPanics: s.panics.Value(),
		Inflight:        len(s.sem),
		Waiting:         s.waiting.Value(),
	}
	s.latency.Each(func(labels []string, h *obs.Histogram) {
		if h.Count() == 0 {
			return
		}
		if st.RouteP50Micros == nil {
			st.RouteP50Micros = map[string]float64{}
			st.RouteP99Micros = map[string]float64{}
		}
		st.RouteP50Micros[labels[0]] = h.Quantile(0.5)
		st.RouteP99Micros[labels[0]] = h.Quantile(0.99)
	})
	return st
}

// Handler returns the HTTP handler: the eight POST answer routes (/explore,
// /local, /complete, /scatter/local, /scatter/complete, /ext/query,
// /ext/reduction and /scatter/ext; see routes), each answering with the
// versioned AnswerEnvelope, plus GET /stats (JSON counters) and GET
// /metrics (Prometheus text format). The answer routes run behind the full
// middleware stack and the one request pipeline; /stats and /metrics
// bypass admission so they stay observable under overload. When
// Config.Pprof is set the net/http/pprof handlers are mounted under
// /debug/pprof/ on this mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc("POST /"+strings.ReplaceAll(rt.name, "_", "/"), s.wrap(rt.name, s.pipeline(rt)))
	}
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the first status code written on a response (for
// the per-route request counter) and injects the X-Trace header just
// before the headers are flushed — the last moment the trace can still be
// amended.
type statusRecorder struct {
	http.ResponseWriter
	status int
	trace  *obs.Trace
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
		if sr.trace != nil {
			sr.ResponseWriter.Header().Set("X-Trace", sr.trace.Summary())
		}
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.WriteHeader(http.StatusOK)
	}
	return sr.ResponseWriter.Write(b)
}

// Status returns the recorded status (200 if the handler wrote nothing).
func (sr *statusRecorder) Status() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

// wrap composes the middleware stack around a handler; see the package
// comment for the order and its rationale. route labels the request's
// metrics (a closed set — one label value per endpoint, never derived from
// the request) and names its trace.
func (s *Server) wrap(route string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inWrap.Add(1)
		defer s.inWrap.Add(-1) // declared first: runs after the response and metrics
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		if s.cfg.Trace {
			rec.trace = obs.StartTrace(route)
		}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				writeError(rec, http.StatusInternalServerError, fmt.Sprintf("internal error: recovered panic: %v", p), 0)
			}
			s.requests.With(route, strconv.Itoa(rec.Status())).Inc()
			s.latency.With(route).Observe(time.Since(start).Microseconds())
		}()
		if s.draining.Load() {
			s.shed.With("draining").Inc()
			s.shedResponse(rec, http.StatusServiceUnavailable, "draining: server is shutting down")
			return
		}
		if hook := testHookPostDrainCheck; hook != nil {
			hook()
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		ctx = obs.WithTrace(ctx, rec.trace)
		endQueue := rec.trace.Stage("queue")
		// The release defer is armed BEFORE admission: once admit hands the
		// slot over, any panic on this goroutine — in the trace stage, a
		// test hook, or the handler itself — runs it. Deferring only after
		// admit returned ok would leave a window in which a panic is
		// recovered into a 500 but the semaphore slot leaks forever,
		// shrinking effective MaxInflight until the server deadlocks.
		var release func()
		defer func() {
			if release != nil {
				release()
			}
		}()
		var ok bool
		release, ok = s.admit(ctx, rec)
		if hook := testHookPostAdmit; ok && hook != nil {
			hook()
		}
		endQueue(0)
		if !ok {
			return
		}
		if hook := testHookHandler; hook != nil {
			hook(r)
		}
		// No "handle" stage: the trace summary is rendered when the handler
		// writes its headers, so a stage ending after the handler returns
		// could never be observed. The webhouse's inner stages (local,
		// certify, source, fold) all end before the response is written.
		h(ctx, rec, r)
	}
}

// admit acquires an execution slot, waiting within the request deadline if
// the queue has room. On rejection it writes the shed response and returns
// ok=false; on success the caller must invoke release.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.Queue) {
		s.waiting.Add(-1)
		s.shed.With("queue_full").Inc()
		s.shedResponse(w, http.StatusTooManyRequests, "overloaded: wait queue full")
		return nil, false
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-ctx.Done():
		s.shed.With("wait_timeout").Inc()
		s.shedResponse(w, http.StatusServiceUnavailable, "overloaded: deadline expired waiting for a slot")
		return nil, false
	}
}

// shedResponse writes a load-shedding response with a Retry-After hint
// scaled to the configured request timeout (at least one second). The
// duration is rounded UP to whole seconds: truncation would tell a client
// of a 1.5s-timeout server to retry after 1s, while the requests that got
// it shed may hold their slots for up to 1.5s more — inviting a second
// shed instead of a successful retry. The body is the error envelope,
// mirroring the header hint.
func (s *Server) shedResponse(w http.ResponseWriter, code int, msg string) {
	retry := int((s.cfg.Timeout + time.Second - 1) / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
	writeError(w, code, msg, retry)
}

// fail maps an execute error to its HTTP status: deadline and
// budget-deadline exhaustion become 504, source unavailability 503, unknown
// sources 404, everything else 500. The body is the error envelope.
func fail(w http.ResponseWriter, err error) {
	var be *budget.Error
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.As(err, &be) && be.Cause == budget.CauseDeadline:
		status = http.StatusGatewayTimeout
	case errors.Is(err, faulty.ErrUnavailable):
		status = http.StatusServiceUnavailable
	case errors.Is(err, webhouse.ErrUnknownSource):
		status = http.StatusNotFound
	}
	writeError(w, status, err.Error(), 0)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
