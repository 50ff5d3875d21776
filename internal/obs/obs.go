// Package obs is the observability substrate of the serving stack: a
// dependency-free metrics registry (atomic counters, gauges, log₂-bucketed
// histograms) with a Prometheus-text-format exporter (prom.go), and
// lightweight per-request span tracing (trace.go).
//
// The paper's deciders sit on the wrong side of NP (Theorems 3.6, 3.10,
// 4.1–4.7), so the serving layers around them (engine pool, budgets, lossy
// fallbacks, degraded completions, admission control) constantly trade
// exactness for latency. Those trades are invisible without instruments:
// this package makes cache hit rates, budget-exhaustion causes, Tri-verdict
// distributions, breaker flips and shed rates first-class, scrapeable
// signals under the `incxml_*` namespace (metric inventory and cardinality
// rules in DESIGN.md "Observability").
//
// Design constraints, in order:
//
//   - Near-zero hot-path cost. Recording is one atomic add (two for a
//     histogram); no locks, no allocation, no formatting. All metric
//     handles are nil-tolerant and respect the package-wide Enabled switch,
//     so instrumentation can be compiled out to a no-op recorder — the E20
//     experiment (EXPERIMENTS.md) bounds the residual overhead.
//   - Scrape-time aggregation. Counters that already exist as atomics in
//     the instrumented layers (pool utilization, cache stats, webhouse
//     counters) are exposed as func-backed samples read at scrape time —
//     the registry is a *view* over the same state `/stats` reports, so the
//     two endpoints can never disagree.
//   - Bounded cardinality. Label values come from small closed sets
//     (routes, verdicts, causes, source names); nothing request-derived is
//     ever a label.
package obs

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled is the package-wide recording switch; see SetEnabled.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled toggles recording globally. When disabled every Add/Inc/Set/
// Observe and trace-stage call returns immediately — the "no-op recorder"
// arm of the E20 overhead experiment. Scraping still works and reports the
// values accumulated while recording was on. Returns the previous state.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// Kind is the Prometheus type of a metric family.
type Kind uint8

// The three family kinds the registry supports.
const (
	// KindCounter is a monotonically increasing counter.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a log₂-bucketed distribution.
	KindHistogram
)

// String renders the kind in Prometheus TYPE syntax.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a valid no-op recorder.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge is a valid no-op recorder.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta and returns the new value. Unlike the other
// recorders Add works even when recording is disabled: gauges double as
// live state (e.g. the admission queue depth), and state transitions must
// not be lost to the metrics switch.
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of finite histogram buckets: bucket i counts
// observations v with v <= 2^i, so the finite range covers [0, 2^31] in
// whatever unit the caller observes (microseconds, steps, ...). Larger
// observations land in the +Inf bucket.
const histBuckets = 32

// Histogram is a log₂-bucketed distribution of non-negative integer
// observations. Bucket i has upper bound 2^i; one extra bucket catches
// overflow (+Inf). Observing costs two atomic adds. The zero value is ready
// to use; a nil *Histogram is a valid no-op recorder.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64
	sum     atomic.Int64
}

// bucketIndex maps an observation to the smallest bucket whose upper bound
// 2^i is >= v (v <= 0 maps to bucket 0, huge values to the +Inf bucket).
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1)) // ceil(log2 v)
	if i > histBuckets-1 {
		return histBuckets // +Inf
	}
	return i
}

// Observe records one value (clamped below at 0).
func (h *Histogram) Observe(v int64) {
	if h == nil || !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (q in [0, 1]) as the upper bound of the
// bucket holding the q-th observation — an over-estimate by at most the 2×
// bucket resolution, which is what log₂ buckets buy. Returns 0 with no
// observations; the +Inf bucket reports the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum > rank {
			if i >= histBuckets {
				i = histBuckets - 1
			}
			return float64(uint64(1) << uint(i))
		}
	}
	return float64(uint64(1) << uint(histBuckets-1))
}

// snapshotBuckets returns the cumulative bucket counts paired with their
// upper bounds, ending with the +Inf count (== Count()).
func (h *Histogram) snapshotBuckets() (bounds []float64, cumulative []uint64) {
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		cum += h.buckets[i].Load()
		if i < histBuckets {
			bounds = append(bounds, float64(uint64(1)<<uint(i)))
		}
		cumulative = append(cumulative, cum)
	}
	return bounds, cumulative
}

// child is one labeled sample of a family: either a stored recorder or a
// func-backed view over external state read at scrape time.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	counterFn   func() uint64
	gaugeFn     func() float64
}

// Family is one named metric family: a kind, a help string, fixed label
// names, and a set of labeled children. Families are created through the
// Registry constructors; direct use is only needed for introspection.
type Family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string

	mu       sync.Mutex
	children map[string]*child
	order    []*child
}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// Kind returns the family's metric kind.
func (f *Family) Kind() Kind { return f.kind }

// labelKey joins label values into a map key. \xff cannot appear in a
// label value that survives validation, so the join is unambiguous.
const labelSep = "\xff"

func (f *Family) get(values []string, make func() *child) *child {
	if len(values) != len(f.labelNames) {
		panic("obs: " + f.name + ": label value count mismatch")
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	c.labelValues = append([]string(nil), values...)
	f.children[key] = c
	f.order = append(f.order, c)
	return c
}

// snapshot returns the children in insertion order.
func (f *Family) snapshot() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*child(nil), f.order...)
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *Family }

// With returns (creating if needed) the counter child for the given label
// values, in the order the label names were declared.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues, func() *child { return &child{counter: &Counter{}} }).counter
}

// Func registers a func-backed counter child: the value is read at scrape
// time, so existing atomic state can be exported without double counting.
func (v *CounterVec) Func(fn func() uint64, labelValues ...string) {
	v.f.get(labelValues, func() *child { return &child{counterFn: fn} })
}

// Each visits every stored (non-func) child with its label values and
// current value.
func (v *CounterVec) Each(fn func(labelValues []string, value uint64)) {
	for _, c := range v.f.snapshot() {
		if c.counter != nil {
			fn(c.labelValues, c.counter.Value())
		}
	}
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *Family }

// With returns (creating if needed) the gauge child for the label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues, func() *child { return &child{gauge: &Gauge{}} }).gauge
}

// Func registers a func-backed gauge child read at scrape time.
func (v *GaugeVec) Func(fn func() float64, labelValues ...string) {
	v.f.get(labelValues, func() *child { return &child{gaugeFn: fn} })
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *Family }

// With returns (creating if needed) the histogram child for the label
// values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues, func() *child { return &child{hist: &Histogram{}} }).hist
}

// Each visits every histogram child with its label values.
func (v *HistogramVec) Each(fn func(labelValues []string, h *Histogram)) {
	for _, c := range v.f.snapshot() {
		if c.hist != nil {
			fn(c.labelValues, c.hist)
		}
	}
}

// Registry holds metric families and renders them in Prometheus text
// format. Construct with NewRegistry, or use the process-wide Default.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Family
	includes []*Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*Family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Process-global
// instrumentation (engine pool, shared caches, decider verdict counters)
// registers here; per-instance registries Include it so one scrape shows
// the whole stack.
func Default() *Registry { return defaultRegistry }

// Include merges another registry into this one at scrape time: its
// families appear in WritePrometheus and Snapshot output after (and
// deduplicated against) the local ones. Family names must be globally
// unique across a registry and everything it includes.
func (r *Registry) Include(other *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.includes = append(r.includes, other)
}

// family returns the named family, creating it if absent. Re-registration
// with the same (kind, labels) returns the existing family — several
// packages may contribute children to one family (e.g. the shared-cache
// counters) — while a kind or label mismatch panics: it is a programming
// error that would corrupt the exposition format.
func (r *Registry) family(name, help string, kind Kind, labelNames []string) *Family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic("obs: conflicting re-registration of " + name)
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic("obs: conflicting labels for " + name)
			}
		}
		return f
	}
	f := &Family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		children:   map[string]*child{},
	}
	r.families[name] = f
	return f
}

// NewCounter registers (or returns) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterVec(name, help).With()
}

// NewCounterVec registers (or returns) a counter family with the given
// label names.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, labelNames)}
}

// CounterFunc registers an unlabeled func-backed counter: a scrape-time
// view over an existing atomic counter.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.NewCounterVec(name, help).Func(fn)
}

// NewGauge registers (or returns) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.NewGaugeVec(name, help).With()
}

// NewGaugeVec registers (or returns) a gauge family with the given label
// names.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, labelNames)}
}

// GaugeFunc registers an unlabeled func-backed gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.NewGaugeVec(name, help).Func(fn)
}

// NewHistogram registers (or returns) an unlabeled log₂-bucketed
// histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.NewHistogramVec(name, help).With()
}

// NewHistogramVec registers (or returns) a histogram family with the given
// label names.
func (r *Registry) NewHistogramVec(name, help string, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, KindHistogram, labelNames)}
}

// gather returns every family visible from r (its own plus included
// registries', deduplicated by name, first registration wins) sorted by
// name.
func (r *Registry) gather() []*Family {
	seen := map[string]bool{}
	var out []*Family
	var walk func(reg *Registry)
	walk = func(reg *Registry) {
		reg.mu.Lock()
		names := make([]string, 0, len(reg.families))
		for n := range reg.families {
			names = append(names, n)
		}
		sort.Strings(names)
		fams := make([]*Family, 0, len(names))
		for _, n := range names {
			fams = append(fams, reg.families[n])
		}
		incs := append([]*Registry(nil), reg.includes...)
		reg.mu.Unlock()
		for _, f := range fams {
			if !seen[f.name] {
				seen[f.name] = true
				out = append(out, f)
			}
		}
		for _, inc := range incs {
			walk(inc)
		}
	}
	walk(r)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
