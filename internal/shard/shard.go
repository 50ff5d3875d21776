// Package shard partitions the webhouse fleet into shard groups behind a
// consistent-hash ring and turns the Theorem 3.19 mediator into a
// scatter-gather front door. Each group owns a disjoint set of sources,
// wrapped in its own fault-injection and retry/breaker layers, so a shard
// is an independent failure domain: when one goes down its sources degrade
// to the flagged Theorem 3.14 local approximation while the rest of the
// cluster keeps answering exactly.
package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/engine"
	"incxml/internal/faulty"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/store"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
)

// Ring is a consistent-hash ring mapping source names to shard indices.
// Each shard contributes `replicas` virtual points; a key is owned by the
// shard of the first point at or clockwise after the key's hash. Adding a
// shard therefore moves only ~1/n of the keys — the usual argument for
// hashing by ring position instead of `hash % n`.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// DefaultReplicas is the virtual-node count per shard when the caller does
// not choose one. 64 points per shard keeps the expected imbalance of the
// largest shard within a few tens of percent of the mean.
const DefaultReplicas = 64

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	// FNV-1a barely avalanches on short, similar keys ("shard-0#1" vs
	// "shard-0#2" differ in a handful of output bits), which clumps the
	// virtual nodes into tight runs and starves shards. The 64-bit murmur3
	// finalizer spreads the FNV digest over the whole ring.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewRing builds a ring over `shards` shards (minimum 1) with `replicas`
// virtual points each (DefaultReplicas when <= 0). Rings are immutable and
// deterministic: two rings with equal parameters agree on every key.
func NewRing(shards, replicas int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*replicas)}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("shard-%d#%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare with 64-bit FNV) break by shard index so
		// the ring stays deterministic.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards reports the shard count.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard index owning the key.
func (r *Ring) Owner(key string) int {
	if r.shards == 1 {
		return 0
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].shard
}

// Config parameterizes a Cluster.
type Config struct {
	// Shards is the number of shard groups (minimum 1).
	Shards int
	// Replicas is the virtual-node count per shard (DefaultReplicas if <= 0).
	Replicas int
	// Budget and ShrinkTo configure every group's webhouse (see
	// webhouse.SetBudget / SetShrinkTo); zero keeps the defaults.
	Budget   int64
	ShrinkTo int
	// Injector and Retry are templates for the per-source fault-injection
	// and retry/breaker layers; each registration derives its own seeds from
	// the template seed and a per-cluster registration sequence so fault
	// sequences stay reproducible but decorrelated across sources.
	Injector faulty.InjectorConfig
	Retry    faulty.RetryConfig
}

// Group is one shard: a webhouse owning the sources the ring assigned
// here, each behind its own injector and retry client.
type Group struct {
	id int
	wh *webhouse.Webhouse

	mu        sync.RWMutex
	injectors map[string]*faulty.Injector
	retries   map[string]*faulty.RetryClient

	down atomic.Bool

	requests atomic.Uint64
	degraded atomic.Uint64
}

// ID returns the shard index.
func (g *Group) ID() int { return g.id }

// Webhouse returns the shard's webhouse.
func (g *Group) Webhouse() *webhouse.Webhouse { return g.wh }

// Sources lists the shard's source names in sorted order.
func (g *Group) Sources() []string { return g.wh.Sources() }

// Injector returns the fault injector in front of a source, or nil if the
// source is not registered here.
func (g *Group) Injector(source string) *faulty.Injector {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.injectors[source]
}

// SetDown toggles a whole-shard outage: every source behind the shard
// fails fast with faulty.ErrUnavailable until the outage is lifted.
func (g *Group) SetDown(down bool) {
	g.down.Store(down)
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, in := range g.injectors {
		in.SetDown(down)
	}
}

// Down reports whether the shard is administratively down.
func (g *Group) Down() bool { return g.down.Load() }

// BreakersOpen counts the shard's sources whose circuit breaker is
// currently open or half-open.
func (g *Group) BreakersOpen() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, rc := range g.retries {
		if rc.BreakerOpen() {
			n++
		}
	}
	return n
}

// Requests reports the source operations routed through the shard.
func (g *Group) Requests() uint64 { return g.requests.Load() }

// Degraded reports how many of the shard's source operations fell back to
// the flagged local approximation (or failed outright).
func (g *Group) Degraded() uint64 { return g.degraded.Load() }

// mergeFallbackSteps bounds the certificate-merge re-verification when the
// cluster has no configured per-request step budget: large enough for any
// realistic query, small enough that the gather path can never run hot.
const mergeFallbackSteps = 1 << 20

// Cluster is the scatter-gather front door: a ring of shard groups and the
// routing and fan-out logic over them. All methods are safe for concurrent
// use.
type Cluster struct {
	cfg  Config
	ring *Ring
	// scatterPool drives the fan-out barrier with one worker per shard.
	// The scatter is latency-bound — workers spend their time blocked on
	// simulated source waits — so sizing it by GOMAXPROCS (as
	// engine.Default() is) would serialize the fan-out on small machines and forfeit
	// exactly the overlap the scatter exists to provide.
	scatterPool *engine.Pool

	groups []*Group

	mu     sync.RWMutex
	owners map[string]*Group
	seq    int64
	// stores are the per-shard durability stores, in group order, when
	// OpenStores wired persistence up (see store.go in this package).
	stores []*store.Store

	scatters        atomic.Uint64
	scatterDegraded atomic.Uint64
}

// New builds a cluster of cfg.Shards empty shard groups.
func New(cfg Config) *Cluster {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	c := &Cluster{
		cfg:         cfg,
		ring:        NewRing(cfg.Shards, cfg.Replicas),
		scatterPool: engine.NewPool(cfg.Shards),
		owners:      map[string]*Group{},
	}
	for i := 0; i < cfg.Shards; i++ {
		wh := webhouse.New()
		if cfg.Budget > 0 {
			wh.SetBudget(cfg.Budget)
		}
		if cfg.ShrinkTo > 0 {
			wh.SetShrinkTo(cfg.ShrinkTo)
		}
		c.groups = append(c.groups, &Group{
			id:        i,
			wh:        wh,
			injectors: map[string]*faulty.Injector{},
			retries:   map[string]*faulty.RetryClient{},
		})
	}
	return c
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.groups) }

// Ring returns the cluster's consistent-hash ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Group returns the i-th shard group.
func (c *Cluster) Group(i int) *Group { return c.groups[i] }

// Groups returns the shard groups in index order. The slice is shared;
// treat it as read-only.
func (c *Cluster) Groups() []*Group { return c.groups }

// Register assigns the source to its ring owner and layers the configured
// injector and retry client in front of it. Seeds derive from the template
// seeds plus the registration sequence number, so a cluster built the same
// way replays the same fault sequences.
func (c *Cluster) Register(src *webhouse.Source) (*Group, error) {
	g := c.groups[c.ring.Owner(src.Name)]
	c.mu.Lock()
	if _, dup := c.owners[src.Name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("shard: source %q already registered", src.Name)
	}
	c.owners[src.Name] = g
	seq := c.seq
	c.seq++
	c.mu.Unlock()

	icfg := c.cfg.Injector
	icfg.Seed += seq
	rcfg := c.cfg.Retry
	rcfg.Seed += seq
	inj := faulty.NewInjector(src.Name, src, icfg)
	rc := faulty.NewRetryClient(inj, rcfg)

	g.wh.Register(src)
	if err := g.wh.SetClient(src.Name, rc); err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.injectors[src.Name] = inj
	g.retries[src.Name] = rc
	g.mu.Unlock()
	// A source registered into a down shard joins the outage.
	if g.down.Load() {
		inj.SetDown(true)
	}
	return g, nil
}

// Owner returns the shard group owning a registered source.
func (c *Cluster) Owner(source string) (*Group, error) {
	c.mu.RLock()
	g, ok := c.owners[source]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("shard: %w %q", webhouse.ErrUnknownSource, source)
	}
	return g, nil
}

// Injector returns the fault injector in front of a registered source.
func (c *Cluster) Injector(source string) (*faulty.Injector, error) {
	g, err := c.Owner(source)
	if err != nil {
		return nil, err
	}
	return g.Injector(source), nil
}

// Sources lists every registered source name in sorted order.
func (c *Cluster) Sources() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.owners))
	for n := range c.owners {
		out = append(out, n)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Explore routes an acquisition query to the source's shard.
func (c *Cluster) Explore(ctx context.Context, source string, q query.Query) (tree.Tree, error) {
	g, err := c.Owner(source)
	if err != nil {
		return tree.Tree{}, err
	}
	return g.wh.Explore(ctx, source, q)
}

// Knowledge routes to the source's shard (see webhouse.Knowledge).
func (c *Cluster) Knowledge(source string) (*itree.T, error) {
	g, err := c.Owner(source)
	if err != nil {
		return nil, err
	}
	return g.wh.Knowledge(source)
}

// Invalidate routes a knowledge reset to the source's shard.
func (c *Cluster) Invalidate(source string) error {
	g, err := c.Owner(source)
	if err != nil {
		return err
	}
	return g.wh.Invalidate(source)
}

// Update routes a document replacement to the source's shard.
func (c *Cluster) Update(source string, doc tree.Tree) error {
	g, err := c.Owner(source)
	if err != nil {
		return err
	}
	return g.wh.Update(source, doc)
}

// AnswerLocally routes a local-knowledge query to the source's shard.
func (c *Cluster) AnswerLocally(ctx context.Context, source string, q query.Query) (*webhouse.LocalAnswer, error) {
	g, err := c.Owner(source)
	if err != nil {
		return nil, err
	}
	return g.wh.AnswerLocally(ctx, source, q)
}

// AnswerComplete routes a complete-answer request to the source's shard.
func (c *Cluster) AnswerComplete(ctx context.Context, source string, q query.Query) (*webhouse.CompleteAnswer, error) {
	g, err := c.Owner(source)
	if err != nil {
		return nil, err
	}
	return g.completeOne(ctx, source, q)
}

// completeOne is AnswerComplete on one shard with the per-shard counters.
func (g *Group) completeOne(ctx context.Context, source string, q query.Query) (*webhouse.CompleteAnswer, error) {
	g.requests.Add(1)
	ca, err := g.wh.AnswerComplete(ctx, source, q)
	if err != nil || ca.Degraded {
		g.degraded.Add(1)
	}
	return ca, err
}

// localOne is AnswerLocally on one shard with the per-shard counters.
func (g *Group) localOne(ctx context.Context, source string, q query.Query) (*webhouse.LocalAnswer, error) {
	g.requests.Add(1)
	la, err := g.wh.AnswerLocally(ctx, source, q)
	if err != nil || la.BudgetExhausted {
		g.degraded.Add(1)
	}
	return la, err
}

// SourceAnswer is one source's contribution to a scatter.
type SourceAnswer struct {
	// Source names the source and Shard the group that answered for it.
	Source string
	Shard  int
	// Complete is set by ScatterComplete, Local by ScatterLocal.
	Complete *webhouse.CompleteAnswer
	Local    *webhouse.LocalAnswer
	// Err is a hard per-source failure (context expiry, solver error).
	// Source outages do not land here — they degrade inside Complete.
	Err error
}

// Certificate returns the answer's completeness certificate: the complete
// answer's (which is the degraded local answer's when the source was down),
// the local answer's, or nil for a hard-failed source — a nil certificate
// certifies nothing, which is exactly what Merge assumes for it.
func (sa SourceAnswer) Certificate() *certify.Certificate {
	switch {
	case sa.Complete != nil:
		return sa.Complete.Certificate
	case sa.Local != nil:
		return sa.Local.Certificate
	default:
		return nil
	}
}

// Degraded reports whether this answer is anything less than exact: a hard
// failure, a flagged Theorem 3.14 approximation, or a budget-truncated
// local answer.
func (sa SourceAnswer) Degraded() bool {
	if sa.Err != nil {
		return true
	}
	if sa.Complete != nil && sa.Complete.Degraded {
		return true
	}
	if sa.Local != nil && sa.Local.BudgetExhausted {
		return true
	}
	return false
}

// Health is the per-shard classification every scatter reports to clients.
type Health struct {
	// Shards is the cluster's shard count.
	Shards int
	// CompleteShards lists shards whose every source answered exactly;
	// DegradedShards those with at least one degraded or failed source.
	// Shards with no sources appear in neither. Both are sorted.
	CompleteShards []int
	DegradedShards []int
}

// Degraded reports whether any shard degraded.
func (h Health) Degraded() bool { return len(h.DegradedShards) > 0 }

// Scatter is the gathered result of a cluster-wide query: one answer per
// registered source, sorted by source name, plus the per-shard health
// classification.
type Scatter struct {
	Answers []SourceAnswer
	Health
	// Certificate is the scatter-wide completeness certificate: the
	// intersection of the per-source certified sub-queries (certify.Merge),
	// with each source's own ratio in PerSource. A hard-failed source — a
	// dead shard the degradation could not soften — contributes nothing, so
	// its atoms drop out of the complete sub-query.
	Certificate *certify.Certificate
}

// ByName returns the answer for a source, or nil.
func (s *Scatter) ByName(source string) *SourceAnswer {
	i := sort.Search(len(s.Answers), func(i int) bool { return s.Answers[i].Source >= source })
	if i < len(s.Answers) && s.Answers[i].Source == source {
		return &s.Answers[i]
	}
	return nil
}

// ScatterComplete answers q completely on every registered source: the
// fan-out is parallel across shards (one sub-request per shard, on the
// scatter pool) and sequential within a shard. A down shard degrades
// its own sources to the flagged local approximation and never fails the
// scatter; only a dead context or a solver error aborts the whole call.
func (c *Cluster) ScatterComplete(ctx context.Context, q query.Query) (*Scatter, error) {
	return c.scatter(ctx, q, false, true)
}

// ScatterCompleteSeq is ScatterComplete without the cross-shard
// parallelism: shards are visited one after the other. Kept as the
// differential-testing and benchmarking baseline — answers must be
// identical to ScatterComplete's, only slower.
func (c *Cluster) ScatterCompleteSeq(ctx context.Context, q query.Query) (*Scatter, error) {
	return c.scatter(ctx, q, false, false)
}

// ScatterLocal answers q from local knowledge only, on every registered
// source, parallel across shards. No source is contacted.
func (c *Cluster) ScatterLocal(ctx context.Context, q query.Query) (*Scatter, error) {
	return c.scatter(ctx, q, true, true)
}

func (c *Cluster) scatter(ctx context.Context, q query.Query, local, parallel bool) (*Scatter, error) {
	answers, health, err := fanOut(ctx, c, parallel, func(g *Group, src string) SourceAnswer {
		sa := SourceAnswer{Source: src, Shard: g.id, Err: ctx.Err()}
		switch {
		case sa.Err != nil:
		case local:
			sa.Local, sa.Err = g.localOne(ctx, src, q)
		default:
			sa.Complete, sa.Err = g.completeOne(ctx, src, q)
		}
		return sa
	})
	if err != nil {
		return nil, err
	}
	s := &Scatter{Answers: answers, Health: health}
	// Merge the per-source certificates into the scatter-wide one. The merge
	// re-verifies the intersected sub-query against each source's knowledge
	// snapshot under its own bounded budget (the configured per-request
	// steps, or a generous fallback), so a dead deadline or a stingy budget
	// shrinks the certificate instead of overclaiming.
	perSource := make(map[string]*certify.Certificate, len(s.Answers))
	knows := make(map[string]*itree.T, len(s.Answers))
	for _, sa := range s.Answers {
		perSource[sa.Source] = sa.Certificate()
		if g, err := c.Owner(sa.Source); err == nil {
			if know, err := g.Webhouse().Knowledge(sa.Source); err == nil {
				knows[sa.Source] = know
			}
		}
	}
	steps := c.cfg.Budget
	if steps <= 0 {
		steps = mergeFallbackSteps
	}
	s.Certificate = certify.Merge(q, perSource, knows, budget.New(ctx, steps))
	return s, nil
}

// scatterAnswer is what the fan-out core needs of a per-source answer.
type scatterAnswer interface {
	Degraded() bool
	source() string
}

func (sa SourceAnswer) source() string { return sa.Source }

// fanOut is the scatter core every cluster-wide query shares. It snapshots
// the per-shard source lists up front (sources registered mid-scatter are
// not part of the plan), answers each source with one — parallel across
// shards on the scatter pool when parallel is set, always sequential within
// a shard — classifies each shard, sorts the answers by source name and
// counts the scatter. Only a dead context fails the whole call.
func fanOut[A scatterAnswer](ctx context.Context, c *Cluster, parallel bool, one func(g *Group, src string) A) ([]A, Health, error) {
	if err := ctx.Err(); err != nil {
		return nil, Health{}, err
	}
	var groups []*Group
	var plan [][]string
	for _, g := range c.groups {
		if srcs := g.Sources(); len(srcs) > 0 {
			groups, plan = append(groups, g), append(plan, srcs)
		}
	}
	results := make([][]A, len(plan))
	run := func(i int) {
		out := make([]A, 0, len(plan[i]))
		for _, src := range plan[i] {
			out = append(out, one(groups[i], src))
		}
		results[i] = out
	}
	if parallel {
		// Pool.Each is a barrier; a non-nil return means the context died
		// and at least one shard was never visited — the scatter is
		// incomplete and must error rather than report a partial cluster.
		if err := c.scatterPool.Each(ctx, len(plan), run); err != nil {
			return nil, Health{}, err
		}
	} else {
		for i := range plan {
			if err := ctx.Err(); err != nil {
				return nil, Health{}, err
			}
			run(i)
		}
	}
	h := Health{Shards: c.Shards()}
	var answers []A
	for i, g := range groups {
		shardOK := true
		for _, a := range results[i] {
			if a.Degraded() {
				shardOK = false
			}
		}
		if shardOK {
			h.CompleteShards = append(h.CompleteShards, g.id)
		} else {
			h.DegradedShards = append(h.DegradedShards, g.id)
		}
		answers = append(answers, results[i]...)
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].source() < answers[j].source() })
	c.scatters.Add(1)
	if h.Degraded() {
		c.scatterDegraded.Add(1)
	}
	return answers, h, nil
}

// Scatters reports the number of scatters run and how many of them had at
// least one degraded shard.
func (c *Cluster) Scatters() (total, degraded uint64) {
	return c.scatters.Load(), c.scatterDegraded.Load()
}

// Stats aggregates the serving counters of every shard's webhouse into one
// cluster view. Per-webhouse counters are summed; the process-global cache
// and intern sections are taken once (they are shared across shards — see
// webhouse.Stats).
func (c *Cluster) Stats() webhouse.Stats {
	agg := c.groups[0].wh.Stats()
	for _, g := range c.groups[1:] {
		st := g.wh.Stats()
		agg.AnswerCacheHits += st.AnswerCacheHits
		agg.AnswerCacheMisses += st.AnswerCacheMisses
		agg.DegradedAnswers += st.DegradedAnswers
		agg.BudgetExhaustions += st.BudgetExhaustions
		agg.LossyFallbacks += st.LossyFallbacks
		agg.Source.Add(st.Source)
	}
	return agg
}
