package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incxml/internal/faulty"
	"incxml/internal/mediator"
	"incxml/internal/query"
	"incxml/internal/serve"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
)

// The traced run builds each request's span tree from outside the program:
// the client span, a serve.handler span from a middleware around the
// server's handler, the stages the server reports in its X-Trace header, a
// timing decorator around each source client and one around the journal.
// The request id travels from the client in idHeader, and from the
// middleware to the decorators in the request context, which the server's
// per-request deadline context derives from.

const idHeader = "X-Bench-Id"

type reqIDKey struct{}

func reqID(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(reqIDKey{}).(uint64)
	return id, ok
}

// stageNames are the self-time stages of the stage tables, in table order.
// Every traced request's client latency is split exactly over them.
var stageNames = []string{
	"client.net", "serve.queue", "webhouse.source", "webhouse.fold", "store.append",
	"webhouse.local", "webhouse.certify", "webhouse.extended", "serve.other",
}

const (
	stNet = iota
	stQueue
	stSource
	stFold
	stAppend
	stLocal
	stCertify
	stExtended
	stOther
	nStages
)

// span is one recorded interval of a request; Start is in microseconds
// since the traced run began, and absent for the server's X-Trace stages,
// whose header carries durations only.
type span struct {
	Req    uint64   `json:"req"`
	Route  string   `json:"route"`
	Name   string   `json:"name"`
	Parent string   `json:"parent,omitempty"`
	Start  *float64 `json:"start_us,omitempty"`
	Dur    float64  `json:"dur_us"`
}

// traced is everything recorded about one traced request.
type traced struct {
	id     uint64
	route  string
	source string
	status int
	// Client and handler intervals.
	cStart, cEnd time.Time
	hStart, hEnd time.Time
	xtrace       string
	// askDone is when the request's last successful source Ask returned.
	// fold is the computed fold of an /explore: from askDone to the
	// journal's Record entry. appended is the time spent in Record on this
	// request's behalf.
	askDone        time.Time
	fold, appended time.Duration
	spans          []span
}

// tracer holds the spans of one traced run in memory.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	reqs map[uint64]*traced
	// pending maps a source answer's root node to the requests whose Ask
	// returned it; the journal matches its event's answer against it.
	pending map[*tree.Node][]uint64
	// inflight lists, per source, the requests inside the handler that may
	// journal (explore, complete), oldest first.
	inflight map[string][]uint64
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		reqs:     map[uint64]*traced{},
		pending:  map[*tree.Node][]uint64{},
		inflight: map[string][]uint64{},
	}
}

func (tr *tracer) us(t time.Time) *float64 {
	v := float64(t.Sub(tr.epoch).Nanoseconds()) / 1e3
	return &v
}

// begin registers a request about to be sent and returns its id.
func (tr *tracer) begin(req *request) uint64 {
	id := tr.nextID.Add(1)
	tr.mu.Lock()
	tr.reqs[id] = &traced{id: id, route: req.route, source: req.source}
	tr.mu.Unlock()
	return id
}

// end records the client side of a completed request.
func (tr *tracer) end(id uint64, start, end time.Time, status int, xtrace string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if r := tr.reqs[id]; r != nil {
		r.cStart, r.cEnd, r.status, r.xtrace = start, end, status, xtrace
	}
}

// middleware wraps the server's handler: it times the handler and puts the
// request id into the request context.
func (tr *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(idHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r) // untagged: metrics scrapes
			return
		}
		tr.mu.Lock()
		req := tr.reqs[id]
		journals := req != nil && (req.route == "explore" || req.route == "complete")
		if journals {
			tr.inflight[req.source] = append(tr.inflight[req.source], id)
		}
		tr.mu.Unlock()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		end := time.Now()
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if req == nil {
			return
		}
		req.hStart, req.hEnd = start, end
		if journals {
			ids := tr.inflight[req.source]
			for i, x := range ids {
				if x == id {
					tr.inflight[req.source] = append(ids[:i:i], ids[i+1:]...)
					break
				}
			}
		}
		// Drop calls whose answer never reached the journal (failed folds).
		for root, ps := range tr.pending {
			kept := ps[:0]
			for _, p := range ps {
				if p != id {
					kept = append(kept, p)
				}
			}
			if len(kept) == 0 {
				delete(tr.pending, root)
			} else {
				tr.pending[root] = kept
			}
		}
	})
}

// sourceCall records one call through a timing client.
func (tr *tracer) sourceCall(ctx context.Context, op string, start, end time.Time, root *tree.Node, ok bool) {
	id, tagged := reqID(ctx)
	if !tagged {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r := tr.reqs[id]
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Req: id, Route: r.route, Name: "webhouse.source." + op,
		Parent: "serve.handler", Start: tr.us(start), Dur: micros(end.Sub(start))})
	if ok && op == "ask" {
		r.askDone = end
		if root != nil {
			tr.pending[root] = append(tr.pending[root], id)
		}
	}
}

// journal attributes one Record call: to the request whose source call
// returned the event's answer, else (an empty answer, or a completion's
// merged answer) to the oldest in-flight journaling request on the same
// source, which the repository write lock serializes with the others.
func (tr *tracer) journal(source string, root *tree.Node, start, end time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var r *traced
	if ps := tr.pending[root]; root != nil && len(ps) > 0 {
		if len(ps) == 1 {
			delete(tr.pending, root)
		} else {
			tr.pending[root] = ps[1:]
		}
		r = tr.reqs[ps[0]]
	} else if ids := tr.inflight[source]; len(ids) > 0 {
		r = tr.reqs[ids[0]]
	}
	if r == nil {
		return
	}
	if r.route == "explore" && r.fold == 0 && !r.askDone.IsZero() {
		r.fold = start.Sub(r.askDone)
		r.spans = append(r.spans, span{Req: r.id, Route: r.route, Name: "webhouse.fold",
			Parent: "serve.handler", Start: tr.us(r.askDone), Dur: micros(r.fold)})
	}
	r.appended += end.Sub(start)
	r.spans = append(r.spans, span{Req: r.id, Route: r.route, Name: "store.append",
		Parent: "serve.handler", Start: tr.us(start), Dur: micros(end.Sub(start))})
}

// timedClient decorates a repository's source client with call spans. It
// forwards the reliability counters and breaker state, so the server's
// metrics read the same with and without it.
type timedClient struct {
	inner faulty.SourceClient
	tr    *tracer
}

func (c *timedClient) Ask(ctx context.Context, q query.Query) (tree.Tree, error) {
	start := time.Now()
	a, err := c.inner.Ask(ctx, q)
	c.tr.sourceCall(ctx, "ask", start, time.Now(), a.Root, err == nil)
	return a, err
}

func (c *timedClient) AskLocal(ctx context.Context, lq mediator.LocalQuery) (tree.Tree, error) {
	start := time.Now()
	a, err := c.inner.AskLocal(ctx, lq)
	c.tr.sourceCall(ctx, "asklocal", start, time.Now(), a.Root, err == nil)
	return a, err
}

func (c *timedClient) Stats() faulty.ClientStats {
	if s, ok := c.inner.(interface{ Stats() faulty.ClientStats }); ok {
		return s.Stats()
	}
	return faulty.ClientStats{}
}

func (c *timedClient) BreakerOpen() bool {
	b, ok := c.inner.(interface{ BreakerOpen() bool })
	return ok && b.BreakerOpen()
}

// timedJournal decorates the durability journal (nil on in-memory runs)
// with store.append spans.
type timedJournal struct {
	inner webhouse.Journal
	tr    *tracer
}

func (j *timedJournal) Record(ev webhouse.JournalEvent) {
	start := time.Now()
	if j.inner != nil {
		j.inner.Record(ev)
	}
	j.tr.journal(ev.Source, ev.Answer.Root, start, time.Now())
}

// instrument installs the timing decorators on every source and journal
// of the server's webhouses.
func (tr *tracer) instrument(srv *serve.Server) {
	stores := srv.Cluster().Stores()
	for i, g := range srv.Cluster().Groups() {
		wh := g.Webhouse()
		for _, src := range wh.Sources() {
			// src comes from wh.Sources(), so the lookup and the install
			// cannot fail.
			repo, _ := wh.Repo(src)
			_ = wh.SetClient(src, &timedClient{inner: repo.Client(), tr: tr})
		}
		j := &timedJournal{tr: tr}
		if i < len(stores) && stores[i] != nil {
			j.inner = stores[i]
		}
		wh.SetJournal(j)
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// xstage is one stage of an X-Trace header, in completion order.
type xstage struct {
	name string
	d    time.Duration
}

// parseXTrace reads "route total=1.2ms queue=3µs local=800µs/22 ...".
func parseXTrace(h string) []xstage {
	var out []xstage
	for _, tok := range strings.Fields(h) {
		name, val, ok := strings.Cut(tok, "=")
		if !ok || name == "total" {
			continue
		}
		val, _, _ = strings.Cut(val, "/")
		d, err := time.ParseDuration(val)
		if err != nil {
			continue
		}
		out = append(out, xstage{name, d})
	}
	return out
}

// selfTimes splits the request's client latency over stageNames. The
// server's certify stage inside a local answer completes just before its
// local stage, so a certify directly followed by a local is nested in it;
// the fold of an /explore is computed (the server reports none), and a
// reported fold contains the journal append.
func (r *traced) selfTimes() [nStages]time.Duration {
	var st [nStages]time.Duration
	var foldX, local, nested time.Duration
	xs := parseXTrace(r.xtrace)
	for i, x := range xs {
		switch x.name {
		case "queue":
			st[stQueue] += x.d
		case "source":
			st[stSource] += x.d
		case "fold":
			foldX += x.d
		case "local":
			local += x.d
		case "certify":
			st[stCertify] += x.d
			if i+1 < len(xs) && xs[i+1].name == "local" {
				nested += x.d
			}
		case "extended":
			st[stExtended] += x.d
		}
	}
	st[stAppend] = r.appended
	if r.route == "explore" {
		st[stFold] = r.fold
	} else if foldX > 0 {
		st[stFold] = foldX - r.appended
	}
	st[stLocal] = local - nested
	handler := r.hEnd.Sub(r.hStart)
	st[stNet] = r.cEnd.Sub(r.cStart) - handler
	st[stOther] = handler
	for i := stQueue; i < stOther; i++ {
		st[stOther] -= st[i]
	}
	return st
}

// stageRow is one band of a route's stage table: mean self time per stage
// over the band's requests, which sums to the band's mean client latency.
type stageRow struct {
	Workload string             `json:"workload"`
	Route    string             `json:"route"`
	Band     string             `json:"band"`
	N        int                `json:"n"`
	TotalMs  float64            `json:"total_ms"`
	StagesMs map[string]float64 `json:"stages_ms"`
	// Attributed is 1 - serve.other/total.
	Attributed float64 `json:"attributed"`
}

// sumMs adds the row's stages.
func (r stageRow) sumMs() float64 {
	s := 0.0
	for _, v := range r.StagesMs {
		s += v
	}
	return s
}

// completed returns the traced 2xx requests.
func (tr *tracer) completed() []*traced {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []*traced
	for _, r := range tr.reqs {
		if r.status >= 200 && r.status < 300 && !r.hEnd.IsZero() {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// stageTables returns, per route, the p50 band (requests between the 45th
// and 55th latency percentile) and the p99 band (the slowest 1%).
func stageTables(workloadName string, reqs []*traced) []stageRow {
	byRoute := map[string][]*traced{}
	for _, r := range reqs {
		byRoute[r.route] = append(byRoute[r.route], r)
	}
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	var rows []stageRow
	for _, route := range routes {
		rs := byRoute[route]
		sort.Slice(rs, func(i, j int) bool { return rs[i].cEnd.Sub(rs[i].cStart) < rs[j].cEnd.Sub(rs[j].cStart) })
		n := len(rs)
		bands := []struct {
			name   string
			lo, hi int
		}{
			{"p50", n * 45 / 100, max(n*55/100, n*45/100+1)},
			{"p99", min(n*99/100, n-1), n},
		}
		for _, b := range bands {
			rows = append(rows, bandRow(workloadName, route, b.name, rs[b.lo:b.hi]))
		}
	}
	return rows
}

func bandRow(workloadName, route, band string, rs []*traced) stageRow {
	row := stageRow{Workload: workloadName, Route: route, Band: band, N: len(rs), StagesMs: map[string]float64{}}
	var sums [nStages]time.Duration
	var total time.Duration
	for _, r := range rs {
		total += r.cEnd.Sub(r.cStart)
		for i, d := range r.selfTimes() {
			sums[i] += d
		}
	}
	n := float64(len(rs))
	row.TotalMs = float64(total) / n / 1e6
	for i, name := range stageNames {
		row.StagesMs[name] = float64(sums[i]) / n / 1e6
	}
	row.Attributed = 1 - ratio(row.StagesMs["serve.other"], row.TotalMs)
	return row
}

// stageMeans is the mean self time per op of each stage over all traced
// 2xx requests, in microseconds, named `<stage>_us`.
func stageMeans(reqs []*traced) map[string]float64 {
	var sums [nStages]time.Duration
	for _, r := range reqs {
		for i, d := range r.selfTimes() {
			sums[i] += d
		}
	}
	out := map[string]float64{}
	for i, name := range stageNames {
		out[name+"_us"] = ratio(float64(sums[i].Nanoseconds())/1e3, float64(len(reqs)))
	}
	return out
}

// writeSpans writes every request's span tree as JSON lines: the client
// span, its serve.handler child, the X-Trace stages and the decorator
// spans.
func (tr *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ids := make([]uint64, 0, len(tr.reqs))
	for id := range tr.reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := tr.reqs[id]
		if r.cEnd.IsZero() {
			continue
		}
		out := []span{{Req: id, Route: r.route, Name: "client", Start: tr.us(r.cStart), Dur: micros(r.cEnd.Sub(r.cStart))}}
		if !r.hEnd.IsZero() {
			out = append(out, span{Req: id, Route: r.route, Name: "serve.handler", Parent: "client",
				Start: tr.us(r.hStart), Dur: micros(r.hEnd.Sub(r.hStart))})
		}
		for _, x := range parseXTrace(r.xtrace) {
			out = append(out, span{Req: id, Route: r.route, Name: "xtrace." + x.name, Parent: "serve.handler", Dur: micros(x.d)})
		}
		for _, s := range append(out, r.spans...) {
			if err := enc.Encode(s); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return bw.Flush()
}
