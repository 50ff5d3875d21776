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
	"strconv"
	"sync"
	"sync/atomic"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/engine"
	"incxml/internal/extquery"
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
// deterministic: two rings with equal parameters agree on every key. The
// v-th point of shard s hashes the key "shard-<s>#<v>".
func NewRing(shards, replicas int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*replicas)}
	for s := 0; s < shards; s++ {
		prefix := "shard-" + strconv.Itoa(s) + "#"
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(prefix + strconv.Itoa(v)), shard: s})
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
	// Budget configures every group's webhouse (see webhouse.SetBudget);
	// zero keeps the default.
	Budget int64
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

// Requests reports the source operations routed through the shard: every
// Explore, AnswerLocally, AnswerComplete and AnswerExtended on one of its
// sources, scatter sub-requests included.
func (g *Group) Requests() uint64 { return g.requests.Load() }

// Degraded reports how many of the shard's source operations failed (a
// failed exploration included) or answered less than exactly: a flagged
// local approximation or a budget-truncated local or extended answer.
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
	// exactly the overlap the scatter exists to provide. Tests swap in a
	// one-worker pool for the sequential reference: Pool.Each with one
	// worker visits the shards in order and stops at a dead context.
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

// op is one source operation as the group wrapper runs it: it asks the
// shard's webhouse about sa.Source and stores the answer in sa.
type op func(wh *webhouse.Webhouse, sa *SourceAnswer) error

// run is the one wrapper every routed source operation goes through, on a
// single-source route or as a scatter's sub-request: it counts the
// operation in Requests and, when it fails or answers less than exactly, in
// Degraded.
func (g *Group) run(source string, o op) SourceAnswer {
	g.requests.Add(1)
	sa := SourceAnswer{Source: source, Shard: g.id}
	sa.Err = o(g.wh, &sa)
	if sa.Degraded() {
		g.degraded.Add(1)
	}
	return sa
}

// route runs o on the shard owning source.
func (c *Cluster) route(source string, o op) (SourceAnswer, error) {
	g, err := c.Owner(source)
	if err != nil {
		return SourceAnswer{}, err
	}
	sa := g.run(source, o)
	return sa, sa.Err
}

func localOp(ctx context.Context, q query.Query) op {
	return func(wh *webhouse.Webhouse, sa *SourceAnswer) (err error) {
		sa.Local, err = wh.AnswerLocally(ctx, sa.Source, q)
		return err
	}
}

func completeOp(ctx context.Context, q query.Query) op {
	return func(wh *webhouse.Webhouse, sa *SourceAnswer) (err error) {
		sa.Complete, err = wh.AnswerComplete(ctx, sa.Source, q)
		return err
	}
}

func extOp(ctx context.Context, q extquery.Query) op {
	return func(wh *webhouse.Webhouse, sa *SourceAnswer) (err error) {
		sa.Ext, err = wh.AnswerExtended(ctx, sa.Source, q)
		return err
	}
}

// Explore routes an acquisition query to the source's shard; a failed
// exploration counts as degraded.
func (c *Cluster) Explore(ctx context.Context, source string, q query.Query) (*webhouse.ExactAnswer, error) {
	var a *webhouse.ExactAnswer
	_, err := c.route(source, func(wh *webhouse.Webhouse, _ *SourceAnswer) (err error) {
		a, err = wh.Explore(ctx, source, q)
		return err
	})
	return a, err
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
	sa, err := c.route(source, localOp(ctx, q))
	return sa.Local, err
}

// AnswerComplete routes a complete-answer request to the source's shard.
func (c *Cluster) AnswerComplete(ctx context.Context, source string, q query.Query) (*webhouse.CompleteAnswer, error) {
	sa, err := c.route(source, completeOp(ctx, q))
	return sa.Complete, err
}

// AnswerExtended routes a Section 4 extended query to the source's shard.
// Extension queries inherit the shard's fault domain exactly like local
// answers: a degraded (budget-exhausted) answer counts against the shard's
// degradation counters.
func (c *Cluster) AnswerExtended(ctx context.Context, source string, q extquery.Query) (*webhouse.ExtendedAnswer, error) {
	sa, err := c.route(source, extOp(ctx, q))
	return sa.Ext, err
}

// SourceAnswer is one source's answer to a routed operation: the answer
// the operation sets, or Err.
type SourceAnswer struct {
	// Source names the source and Shard the group that answered for it.
	Source string
	Shard  int
	// The operation sets one answer: Local for AnswerLocally and
	// ScatterLocal, Complete for AnswerComplete and ScatterComplete, Ext
	// for AnswerExtended and ScatterExtended.
	Local    *webhouse.LocalAnswer
	Complete *webhouse.CompleteAnswer
	Ext      *webhouse.ExtendedAnswer
	// Err is a hard per-source failure (context expiry, solver error).
	// Source outages do not land here — they degrade inside Complete.
	Err error
}

// Certificate returns the answer's completeness certificate: the complete
// answer's (which is the degraded local answer's when the source was down),
// the local or extended answer's, or nil for a hard-failed source — a nil
// certificate certifies nothing, which is exactly what Merge assumes for it.
func (sa SourceAnswer) Certificate() *certify.Certificate {
	switch {
	case sa.Complete != nil:
		return sa.Complete.Certificate
	case sa.Local != nil:
		return sa.Local.Certificate
	case sa.Ext != nil:
		return sa.Ext.Certificate
	default:
		return nil
	}
}

// Knowledge returns the knowledge snapshot the answer and its certificate
// belong to (see webhouse.LocalAnswer and CompleteAnswer), or nil for a
// hard-failed source and for an extended answer.
func (sa SourceAnswer) Knowledge() *itree.T {
	switch {
	case sa.Complete != nil:
		return sa.Complete.Knowledge
	case sa.Local != nil:
		return sa.Local.Knowledge
	default:
		return nil
	}
}

// Degraded reports whether this answer is anything less than exact: a hard
// failure, a flagged Theorem 3.14 approximation, or a budget-truncated
// local or extended answer.
func (sa SourceAnswer) Degraded() bool {
	return sa.Err != nil ||
		sa.Complete != nil && sa.Complete.Degraded ||
		sa.Local != nil && sa.Local.BudgetExhausted ||
		sa.Ext != nil && sa.Ext.BudgetExhausted
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
	// Certificate is the scatter-wide completeness certificate of
	// ScatterLocal and ScatterComplete: the intersection of the per-source
	// certified sub-queries (certify.Merge), with each source's own ratio in
	// PerSource. It is memoized per query and snapshot set and shared by
	// every scatter that hits it: read-only. A hard-failed source — a dead shard the degradation could
	// not soften — contributes nothing, so its atoms drop out of the
	// complete sub-query. ScatterExtended leaves it nil: extended languages
	// are not a strong representation system (Section 4), so per-source
	// certificates (present when Corollary 3.15 applied through a covering
	// ps-query) do not intersect meaningfully.
	Certificate *certify.Certificate
}

// ScatterComplete answers q completely on every registered source: the
// fan-out is parallel across shards (one sub-request per shard, on the
// scatter pool) and sequential within a shard. A down shard degrades
// its own sources to the flagged local approximation and never fails the
// scatter; only a dead context or a solver error aborts the whole call.
func (c *Cluster) ScatterComplete(ctx context.Context, q query.Query) (*Scatter, error) {
	return c.scatterCertified(ctx, q, completeOp(ctx, q))
}

// ScatterLocal answers q from local knowledge only, on every registered
// source, parallel across shards. No source is contacted.
func (c *Cluster) ScatterLocal(ctx context.Context, q query.Query) (*Scatter, error) {
	return c.scatterCertified(ctx, q, localOp(ctx, q))
}

// ScatterExtended evaluates an extended query on every registered source
// through the same fan-out core as ScatterLocal: only a dead context aborts
// the whole call, per-source budget exhaustion degrades that source's shard.
func (c *Cluster) ScatterExtended(ctx context.Context, q extquery.Query) (*Scatter, error) {
	return c.fanOut(ctx, extOp(ctx, q))
}

// testHookBeforeMerge, when set, runs between a certified scatter's fan-out
// and its merge. Tests use it to replace a source's snapshot in that window.
var testHookBeforeMerge func()

// scatterCertified is fanOut plus the scatter-wide certificate of q.
func (c *Cluster) scatterCertified(ctx context.Context, q query.Query, o op) (*Scatter, error) {
	s, err := c.fanOut(ctx, o)
	if err != nil {
		return nil, err
	}
	if hook := testHookBeforeMerge; hook != nil {
		hook()
	}
	s.Certificate = c.merge(ctx, q, s.Answers)
	return s, nil
}

// mergedCertificate is a scatter-wide certificate memoized under
// itree.MemoScatter on the first source's snapshot, with the inputs it was
// merged from, one part per answer in answer order.
type mergedCertificate struct {
	parts []mergePart
	cert  *certify.Certificate
}

// mergePart is one source's input to a merge: the ID of its knowledge
// snapshot (an ID, not the snapshot, so the memo keeps no other source's
// old snapshot alive) and its certificate. Every source has snapshots of
// its own, so matching IDs also match the sources.
type mergePart struct {
	know uint64
	cert *certify.Certificate
}

// matches reports whether the memoized merge was computed from exactly the
// snapshots and certificates of answers.
func (m *mergedCertificate) matches(answers []SourceAnswer) bool {
	if len(m.parts) != len(answers) {
		return false
	}
	for i, sa := range answers {
		know := sa.Knowledge()
		if know == nil || m.parts[i].know != know.ID() || m.parts[i].cert != sa.Certificate() {
			return false
		}
	}
	return true
}

// merge folds the per-source certificates of answers into the scatter-wide
// one (certify.Merge), re-verifying against the snapshot each answer was
// computed from. The merge re-verifies the intersected sub-query under its
// own bounded budget (the configured per-request steps, or a generous
// fallback), so a dead deadline or a stingy budget shrinks the certificate
// instead of overclaiming.
//
// The result depends only on q and those snapshots and certificates, so it
// is memoized on the first source's snapshot, under q's key. A recall is
// used only when every source's snapshot and certificate are the ones it
// was merged from. An Exhausted merge, or one with a dead source (no
// certificate or no snapshot), is not stored.
func (c *Cluster) merge(ctx context.Context, q query.Query, answers []SourceAnswer) *certify.Certificate {
	var first *itree.T
	if len(answers) > 0 {
		first = answers[0].Knowledge()
	}
	key := q.String()
	if first != nil {
		if v, ok := first.Recall(itree.MemoScatter, key); ok {
			if m := v.(*mergedCertificate); m.matches(answers) {
				return m.cert
			}
		}
	}
	perSource := make(map[string]*certify.Certificate, len(answers))
	knows := make(map[string]*itree.T, len(answers))
	parts := make([]mergePart, len(answers))
	storable := first != nil
	for i, sa := range answers {
		cert, know := sa.Certificate(), sa.Knowledge()
		perSource[sa.Source] = cert
		if know != nil {
			knows[sa.Source] = know
		}
		if cert == nil || know == nil || know.ID() == 0 {
			storable = false
			continue
		}
		parts[i] = mergePart{know: know.ID(), cert: cert}
	}
	steps := c.cfg.Budget
	if steps <= 0 {
		steps = mergeFallbackSteps
	}
	merged := certify.Merge(q, perSource, knows, budget.New(ctx, steps))
	if storable && !merged.Exhausted {
		first.Remember(itree.MemoScatter, key, &mergedCertificate{parts: parts, cert: merged})
	}
	return merged
}

// fanOut is the scatter core every cluster-wide query shares. It snapshots
// the per-shard source lists up front (sources registered mid-scatter are
// not part of the plan), runs o on each source through its group's wrapper
// — parallel across shards on the scatter pool, always sequential within a
// shard — classifies each shard, sorts the answers by source name and
// counts the scatter. Only a dead context fails the whole call.
func (c *Cluster) fanOut(ctx context.Context, o op) (*Scatter, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var groups []*Group
	var plan [][]string
	for _, g := range c.groups {
		if srcs := g.Sources(); len(srcs) > 0 {
			groups, plan = append(groups, g), append(plan, srcs)
		}
	}
	results := make([][]SourceAnswer, len(plan))
	// Pool.Each is a barrier; a non-nil return means the context died and at
	// least one shard was never visited — the scatter is incomplete and must
	// error rather than report a partial cluster.
	err := c.scatterPool.Each(ctx, len(plan), func(i int) {
		out := make([]SourceAnswer, 0, len(plan[i]))
		for _, src := range plan[i] {
			if err := ctx.Err(); err != nil {
				out = append(out, SourceAnswer{Source: src, Shard: groups[i].id, Err: err})
				continue
			}
			out = append(out, groups[i].run(src, o))
		}
		results[i] = out
	})
	if err != nil {
		return nil, err
	}
	s := &Scatter{Health: Health{Shards: c.Shards()}}
	for i, g := range groups {
		shardOK := true
		for _, a := range results[i] {
			if a.Degraded() {
				shardOK = false
			}
		}
		if shardOK {
			s.CompleteShards = append(s.CompleteShards, g.id)
		} else {
			s.DegradedShards = append(s.DegradedShards, g.id)
		}
		s.Answers = append(s.Answers, results[i]...)
	}
	sort.Slice(s.Answers, func(i, j int) bool { return s.Answers[i].Source < s.Answers[j].Source })
	c.scatters.Add(1)
	if s.Degraded() {
		c.scatterDegraded.Add(1)
	}
	return s, nil
}

// Scatters reports the number of scatters run and how many of them had at
// least one degraded shard.
func (c *Cluster) Scatters() (total, degraded uint64) {
	return c.scatters.Load(), c.scatterDegraded.Load()
}

// Stats aggregates the serving counters of every shard's webhouse into one
// cluster view. Per-webhouse counters are summed; the process-global
// decision and engine sections are taken once (they are shared across
// shards — see webhouse.Stats).
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
