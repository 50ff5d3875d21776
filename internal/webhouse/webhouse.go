// Package webhouse implements the paper's motivating system: an XML
// warehouse that accumulates incomplete information about remote sources by
// querying them (Section 1). Sources are simulated as in-memory documents
// with persistent node ids (the substitution for live Web sources; see
// DESIGN.md).
//
// For each source the webhouse maintains a reachable incomplete tree via
// Algorithm Refine. A user query can be answered three ways:
//
//   - locally and exactly, when Corollary 3.15 certifies the query fully
//     answerable from the data tree;
//   - locally and approximately, returning the q(T) incomplete tree of
//     possible answers (Theorem 3.14) together with certain/possible
//     information;
//   - completely, by executing a non-redundant set of local queries against
//     the source (Theorem 3.19) and merging the answers.
//
// The webhouse is a serving layer: all entry points are safe for concurrent
// use and take a context whose deadline bounds the work — source access,
// retries and pooled sub-computations are all cancelled when it expires.
// Source access goes through a faulty.SourceClient (per repository), so a
// slow or down source degrades AnswerComplete to the best approximate local
// answer (Theorem 3.14), flagged Degraded, instead of blocking or erroring.
// Each repository guards its refinement state with an RWMutex so many
// readers (AnswerLocally, AnswerExtended, Knowledge) proceed in parallel
// while acquisition (Explore, AnswerComplete, Invalidate, Update) is
// exclusive; no lock is held across source I/O. Local answers are cached
// per source under the query's canonical string and invalidated whenever
// the knowledge changes.
package webhouse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"incxml/internal/answer"
	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/dtd"
	"incxml/internal/engine"
	"incxml/internal/faulty"
	"incxml/internal/heuristics"
	"incxml/internal/intern"
	"incxml/internal/itree"
	"incxml/internal/mediator"
	"incxml/internal/obs"
	"incxml/internal/query"
	"incxml/internal/refine"
	"incxml/internal/tree"
)

// Source simulates a remote XML document behind a ps-query interface with
// persistent node identifiers (Remark 2.4). It satisfies faulty.Backend.
type Source struct {
	Name string
	Type *dtd.Type

	// mu guards doc only. Queries snapshot the document pointer under mu
	// and evaluate outside it, so concurrent Ask calls overlap and never
	// block Doc or Update; documents are treated as immutable (Update
	// replaces the pointer, never mutates in place).
	mu  sync.Mutex
	doc tree.Tree

	queriesServed atomic.Int64
	nodesServed   atomic.Int64
}

// testHookSourceEval, when set, runs between the document snapshot and the
// query evaluation in Ask/AskLocal. Tests use it to prove evaluation
// happens outside the source lock.
var testHookSourceEval func()

// NewSource wraps a document; it must conform to the type.
func NewSource(name string, ty *dtd.Type, doc tree.Tree) (*Source, error) {
	if err := ty.Validate(doc); err != nil {
		return nil, fmt.Errorf("webhouse: source %q: %v", name, err)
	}
	return &Source{Name: name, Type: ty, doc: doc}, nil
}

// Doc returns the current document. Callers must treat it as read-only.
func (s *Source) Doc() tree.Tree {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doc
}

// Served reports the query and node counters.
func (s *Source) Served() (queries, nodes int) {
	return int(s.queriesServed.Load()), int(s.nodesServed.Load())
}

// record tallies one served query answering a nodes.
func (s *Source) record(a tree.Tree) tree.Tree {
	s.queriesServed.Add(1)
	s.nodesServed.Add(int64(a.Size()))
	return a
}

// Ask evaluates a ps-query against the full document. The document is
// snapshotted under the source lock and evaluated outside it, so slow
// queries do not serialize readers.
func (s *Source) Ask(q query.Query) tree.Tree {
	doc := s.Doc()
	if h := testHookSourceEval; h != nil {
		h()
	}
	return s.record(q.Eval(doc))
}

// AskLocal evaluates a local query p@n.
func (s *Source) AskLocal(lq mediator.LocalQuery) tree.Tree {
	doc := s.Doc()
	if h := testHookSourceEval; h != nil {
		h()
	}
	return s.record(lq.Execute(doc))
}

// Update replaces the source document (the source changed). Prefer
// Webhouse.Update, which also drops the now-stale knowledge.
func (s *Source) Update(doc tree.Tree) error {
	if err := s.Type.Validate(doc); err != nil {
		return err
	}
	s.mu.Lock()
	s.doc = doc
	s.mu.Unlock()
	return nil
}

// Repository is the webhouse's incomplete knowledge about one source.
//
// mu guards the refiner (the knowledge); cacheMu guards the answer caches
// and the generation counter together. Lock order is mu before cacheMu;
// neither is ever held across source I/O — the client is called between
// the knowledge snapshot and the fold-in.
type Repository struct {
	Source *Source

	clientMu sync.RWMutex
	client   faulty.SourceClient

	mu      sync.RWMutex
	refiner *refine.Refiner

	cacheMu sync.Mutex
	gen     atomic.Uint64
	answers map[intern.ID]*LocalAnswer
	ext     map[intern.ID]*ExtendedAnswer

	// quarantined marks a repository recovery could not restore: it serves
	// from pristine (empty) knowledge, flagged so operators and stats can
	// tell degraded-by-design from healthy (see Webhouse.Quarantine).
	quarantined atomic.Bool
}

// invalidate marks the knowledge changed and drops all cached answers.
// The generation bump and the map clear form one cacheMu critical section:
// anyone holding cacheMu observes them atomically, so a cached entry can
// never coexist with a newer generation (see storeLocal).
func (r *Repository) invalidate() {
	r.cacheMu.Lock()
	r.gen.Add(1)
	r.answers = map[intern.ID]*LocalAnswer{}
	r.ext = map[intern.ID]*ExtendedAnswer{}
	r.cacheMu.Unlock()
}

// Client returns the source-access client serving this repository.
func (r *Repository) Client() faulty.SourceClient {
	r.clientMu.RLock()
	defer r.clientMu.RUnlock()
	return r.client
}

// Webhouse is a registry of repositories, safe for concurrent use.
type Webhouse struct {
	// journalState is the durability attachment point: every applied
	// acquisition mutation is emitted to the installed Journal (see
	// journal.go and internal/store).
	journalState

	mu    sync.RWMutex
	repos map[string]*Repository

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	degraded    atomic.Uint64

	// budgetSteps is the per-request step allowance for the solver budgets
	// (0 = step-unlimited; the context deadline still applies). shrinkTo is
	// the lossy-fallback size cap (0 = refine.DefaultShrinkTo).
	budgetSteps       atomic.Int64
	shrinkTo          atomic.Int64
	budgetExhaustions atomic.Uint64
	lossyFallbacks    atomic.Uint64
}

// New creates an empty webhouse; its fan-outs run on engine.Default().
func New() *Webhouse {
	return &Webhouse{repos: map[string]*Repository{}}
}

// SetBudget sets the per-request step allowance of the solver budgets;
// 0 disables the step limit (the context deadline alone bounds the work).
// Budgeted solvers whose exact run would exceed the allowance degrade to the
// lossy-shrinking fallback instead of pinning a goroutine (DESIGN.md
// "Resource budgets & overload control").
func (wh *Webhouse) SetBudget(steps int64) { wh.budgetSteps.Store(steps) }

// BudgetSteps reports the configured per-request step allowance.
func (wh *Webhouse) BudgetSteps() int64 { return wh.budgetSteps.Load() }

// SetShrinkTo sets the representation-size cap the lossy fallback shrinks
// knowledge to; 0 restores refine.DefaultShrinkTo.
func (wh *Webhouse) SetShrinkTo(n int) { wh.shrinkTo.Store(int64(n)) }

func (wh *Webhouse) shrinkCap() int {
	if n := wh.shrinkTo.Load(); n > 0 {
		return int(n)
	}
	return refine.DefaultShrinkTo
}

// newBudget builds the cooperative budget for one request. It returns nil
// (unlimited) when no step allowance is configured and the context carries
// no deadline, so unconfigured webhouses behave exactly as before. A
// request-scoped budget.WithStepCap on the context can only tighten the
// configured allowance, never widen it.
func (wh *Webhouse) newBudget(ctx context.Context) *budget.B {
	steps := wh.effectiveSteps(ctx)
	if steps <= 0 && ctx.Done() == nil {
		return nil
	}
	return budget.New(ctx, steps)
}

// effectiveSteps folds the request-scoped step cap into the configured
// allowance: the smaller of the two wins (a cap on an unlimited server
// simply applies).
func (wh *Webhouse) effectiveSteps(ctx context.Context) int64 {
	return budget.CapSteps(ctx, wh.budgetSteps.Load())
}

// Register adds a source, initializing its knowledge to the source's tree
// type (everything about the document itself is unknown). Access goes
// through a fault-free direct client; use SetClient to interpose retry or
// fault-injection layers.
func (wh *Webhouse) Register(src *Source) {
	wh.mu.Lock()
	defer wh.mu.Unlock()
	wh.repos[src.Name] = &Repository{
		Source:  src,
		client:  faulty.NewDirect(src),
		refiner: refine.NewRefiner(src.Type.Alphabet(), src.Type),
		answers: map[intern.ID]*LocalAnswer{},
		ext:     map[intern.ID]*ExtendedAnswer{},
	}
}

// SetClient installs the source-access client for a registered source —
// typically a faulty.RetryClient wrapping an unreliable transport. nil
// restores the fault-free direct client.
func (wh *Webhouse) SetClient(source string, c faulty.SourceClient) error {
	r, err := wh.Repo(source)
	if err != nil {
		return err
	}
	if c == nil {
		c = faulty.NewDirect(r.Source)
	}
	r.clientMu.Lock()
	r.client = c
	r.clientMu.Unlock()
	return nil
}

// ErrUnknownSource reports a lookup of an unregistered source name.
var ErrUnknownSource = errors.New("unknown source")

// Repo returns the repository for a source.
func (wh *Webhouse) Repo(name string) (*Repository, error) {
	wh.mu.RLock()
	r, ok := wh.repos[name]
	wh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("webhouse: %w %q", ErrUnknownSource, name)
	}
	return r, nil
}

// Sources lists the registered source names in sorted order. The slice is a
// copy; callers may retain it.
func (wh *Webhouse) Sources() []string {
	wh.mu.RLock()
	out := make([]string, 0, len(wh.repos))
	for n := range wh.repos {
		out = append(out, n)
	}
	wh.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Stats aggregates the serving-layer counters: the per-source answer cache,
// the shared decision and membership caches, source-access reliability, and
// the worker pool.
type Stats struct {
	// AnswerCacheHits/Misses count AnswerLocally and AnswerExtended lookups
	// served from (resp. missing) the per-source answer caches. These are
	// per-webhouse.
	AnswerCacheHits   uint64
	AnswerCacheMisses uint64
	// DegradedAnswers counts AnswerComplete calls that fell back to the
	// approximate local answer because the source was unavailable.
	DegradedAnswers uint64
	// BudgetExhaustions counts local computations whose step or deadline
	// budget ran out; LossyFallbacks counts those recovered (at least
	// partially) through the Proposition 3.13 lossy-shrinking fallback.
	BudgetExhaustions uint64
	LossyFallbacks    uint64
	// Source aggregates retry/breaker counters over every repository whose
	// client exposes faulty.ClientStats (direct clients report nothing).
	Source faulty.ClientStats
	// Decision is the answer package's decision-procedure cache and
	// Membership the itree membership/prefix result cache. Both caches are
	// PROCESS-GLOBAL: all webhouses (and direct itree/answer callers) in
	// the process share them, because entries are keyed by content
	// fingerprints and are therefore valid across instances. Two webhouses
	// in one process deliberately see each other's traffic in these two
	// counters; treat them as process gauges, not per-webhouse ones.
	Decision engine.CacheStats
	// Membership is the itree membership/prefix result cache (shared; see
	// Decision).
	Membership engine.CacheStats
	// Engine reports the process-global default pool's utilization (a
	// process gauge, like Decision/Membership).
	Engine engine.Stats
	// Intern reports the process-global intern tables (strings, conditions,
	// hash-consed trees): entry counts, hit/miss traffic, and the bytes of
	// duplicate content the sharing avoided. Like Decision/Membership these
	// are process gauges, not per-webhouse ones.
	Intern []intern.TableStats
}

// clientStats is implemented by clients that track reliability counters
// (faulty.RetryClient).
type clientStats interface{ Stats() faulty.ClientStats }

// Stats returns a snapshot of the webhouse's serving counters.
func (wh *Webhouse) Stats() Stats {
	src := wh.sourceStats()
	return Stats{
		AnswerCacheHits:   wh.cacheHits.Load(),
		AnswerCacheMisses: wh.cacheMisses.Load(),
		DegradedAnswers:   wh.degraded.Load(),
		BudgetExhaustions: wh.budgetExhaustions.Load(),
		LossyFallbacks:    wh.lossyFallbacks.Load(),
		Source:            src,
		Decision:          answer.CacheStats(),
		Membership:        itree.CacheStats(),
		Engine:            engine.Default().Stats(),
		Intern:            intern.Stats(),
	}
}

// observeLocked folds the answer a of query q into r with the paper's
// recovery strategy: when the observation contradicts the accumulated
// knowledge — the source changed under us — the repository is
// reinitialized to the source type and the observation replayed against
// the fresh state. The refinement runs under the webhouse budget: on
// exhaustion the refiner degrades to the Proposition 3.13 lossy shrink
// rather than dropping the (already paid-for) source answer, so
// acquisition never fails on budget grounds — it merely coarsens. The
// caller must hold r.mu for writing.
func (wh *Webhouse) observeLocked(ctx context.Context, r *Repository, q query.Query, a tree.Tree) error {
	lossy, err := r.refiner.ObserveBudgeted(q, a, wh.newBudget(ctx), wh.shrinkCap())
	if errors.Is(err, refine.ErrInconsistent) {
		r.refiner = refine.NewRefiner(r.Source.Type.Alphabet(), r.Source.Type)
		lossy, err = r.refiner.ObserveBudgeted(q, a, wh.newBudget(ctx), wh.shrinkCap())
	}
	if lossy {
		wh.lossyFallbacks.Add(1)
	}
	return err
}

// Explore poses a ps-query to the source and folds the answer into the
// repository (the acquisition loop of Section 3.1). The source is reached
// through the repository's client outside any repository lock, so a slow
// source never blocks concurrent readers; the context's deadline bounds
// the call, retries included. Cached local answers for the source are
// dropped on success. When the source is unavailable the returned error
// wraps faulty.ErrUnavailable and the knowledge is left unchanged —
// acquisition, unlike AnswerComplete, has no approximate fallback.
func (wh *Webhouse) Explore(ctx context.Context, source string, q query.Query) (tree.Tree, error) {
	r, err := wh.Repo(source)
	if err != nil {
		return tree.Tree{}, err
	}
	endSource := obs.FromContext(ctx).Stage("source")
	a, err := r.Client().Ask(ctx, q)
	endSource(0)
	if err != nil {
		return tree.Tree{}, fmt.Errorf("webhouse: explore %q: %w", source, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := wh.observeLocked(ctx, r, q, a); err != nil {
		return tree.Tree{}, err
	}
	r.invalidate()
	wh.journalRecord(observeEventLocked(r, q, a))
	return a, nil
}

// Knowledge returns the reachable incomplete tree for the source. The
// returned tree is a snapshot: later Explore calls do not mutate it.
func (wh *Webhouse) Knowledge(source string) (*itree.T, error) {
	r, err := wh.Repo(source)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.refiner.Reachable(), nil
}

// Invalidate reinitializes the knowledge about a source to its tree type
// (the paper's treatment of source updates) and drops its cached answers.
func (wh *Webhouse) Invalidate(source string) error {
	r, err := wh.Repo(source)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetLocked()
	wh.journalRecord(JournalEvent{
		Kind:      EventInvalidate,
		Source:    r.Source.Name,
		Knowledge: r.refiner.Tree(),
	})
	return nil
}

// Update replaces a source's document and invalidates the now-stale
// knowledge and cached answers in one step.
func (wh *Webhouse) Update(source string, doc tree.Tree) error {
	r, err := wh.Repo(source)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.Source.Update(doc); err != nil {
		return err
	}
	r.resetLocked()
	wh.journalRecord(JournalEvent{
		Kind:      EventUpdate,
		Source:    r.Source.Name,
		Doc:       doc,
		Knowledge: r.refiner.Tree(),
	})
	return nil
}

// LocalAnswer is the result of answering a query from local knowledge only.
// Instances returned by AnswerLocally may be shared between callers; treat
// them as read-only.
type LocalAnswer struct {
	// Fully reports whether the query was certified fully answerable
	// (Corollary 3.15): Exact then equals q(T) for every possible world.
	Fully bool
	// Exact is the answer computed on the data tree (meaningful when Fully).
	Exact tree.Tree
	// Possible is the incomplete tree q(T) describing all possible answers
	// (Theorem 3.14). When PossibleLossy is set it was computed from a
	// lossy-shrunk knowledge tree and over-approximates the possible
	// answers (still sound as a set of candidates).
	Possible *itree.T
	// CertainlyNonEmpty and PossiblyNonEmpty are the Corollary 3.18
	// modalities, collapsed to their sound boolean reading:
	// CertainlyNonEmpty (and Fully) are true only on an exact or
	// soundly-degraded Yes, while PossiblyNonEmpty stays true when the
	// verdict is Unknown — an undecided source may still hold relevant
	// information.
	CertainlyNonEmpty bool
	PossiblyNonEmpty  bool

	// FullyV, CertainlyNonEmptyV and PossiblyNonEmptyV are the three-valued
	// verdicts behind the booleans: Yes/No are exact (or established through
	// a sound-direction fallback), Unknown means the budget ran out before
	// the facet was decided in a sound direction.
	FullyV             budget.Tri
	CertainlyNonEmptyV budget.Tri
	PossiblyNonEmptyV  budget.Tri
	// Lossy reports that at least one facet was recovered through the
	// Proposition 3.13 lossy-shrinking fallback. PossibleLossy flags the
	// Possible tree specifically.
	Lossy         bool
	PossibleLossy bool
	// BudgetExhausted reports that the request budget ran out while
	// computing this answer (the answer is then never cached).
	BudgetExhausted bool
	// Certificate is the completeness certificate: the maximal sub-query
	// (under the certify budget) for which Exact is provably complete, plus
	// the certain-region summary. Never nil on answers built by the
	// webhouse; read-only.
	Certificate *certify.Certificate
}

// lookupLocal consults a repository answer cache; see storeLocal for the
// staleness protocol.
func (wh *Webhouse) lookupLocal(r *Repository, key intern.ID) (*LocalAnswer, bool) {
	r.cacheMu.Lock()
	la, ok := r.answers[key]
	r.cacheMu.Unlock()
	if ok {
		wh.cacheHits.Add(1)
	} else {
		wh.cacheMisses.Add(1)
	}
	return la, ok
}

// storeLocal inserts a computed answer unless the knowledge changed since
// the computation started. invalidate bumps gen and clears the maps in one
// cacheMu critical section, so the gen check under cacheMu is exact: the
// insert happens iff no invalidation intervened since the snapshot.
func (r *Repository) storeLocal(gen uint64, key intern.ID, la *LocalAnswer) {
	r.cacheMu.Lock()
	if r.gen.Load() == gen {
		r.answers[key] = la
	}
	r.cacheMu.Unlock()
}

// snapshot reads the repository's generation and knowledge consistently.
func (r *Repository) snapshot() (uint64, *itree.T) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen.Load(), r.refiner.Reachable()
}

// fallbackSteps bounds the lossy-fallback recomputation: the shrunk tree is
// small by construction, so this allowance is generous for it while still
// guaranteeing the fallback itself terminates promptly.
const fallbackSteps = 1 << 20

// computeLocal evaluates the four local-answer facets of q on know across
// the worker pool, honoring the context's deadline and the webhouse's
// per-request step budget. When the deadline expires before every facet
// ran, the context error is returned instead of a partial answer. When the
// step allowance runs out, the facets degrade soundly through the
// Proposition 3.13 lossy-shrinking fallback: verdicts that the rep-superset
// decides in the sound direction (Fully/CertainlyNonEmpty Yes,
// PossiblyNonEmpty No) are kept exact, the rest report Unknown.
func (wh *Webhouse) computeLocal(ctx context.Context, know *itree.T, q query.Query) (*LocalAnswer, error) {
	bud := wh.newBudget(ctx)
	endStage := obs.FromContext(ctx).Stage("local")
	defer func() {
		used := bud.Used()
		stepsUsed.Observe(used)
		endStage(used)
	}()
	out := &LocalAnswer{}
	var errs [4]error
	tasks := []func(){
		func() { out.FullyV, errs[0] = answer.FullyAnswerableBudgeted(know, q, bud) },
		func() { out.Exact = q.Eval(know.DataTree()) },
		func() { out.Possible, errs[1] = answer.ApplyBudgeted(know, q, bud) },
		func() { out.CertainlyNonEmptyV, errs[2] = answer.CertainlyNonEmptyBudgeted(know, q, bud) },
		func() { out.PossiblyNonEmptyV, errs[3] = answer.PossiblyNonEmptyBudgeted(know, q, bud) },
	}
	if err := engine.Default().Each(ctx, len(tasks), func(i int) { tasks[i]() }); err != nil {
		return nil, err
	}
	exhausted := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, budget.ErrExhausted) {
			return nil, err
		}
		exhausted = true
	}
	if exhausted {
		wh.budgetExhaustions.Add(1)
		out.BudgetExhausted = true
		if bud.ExhaustedCause() == budget.CauseDeadline {
			// Deadline exhaustion is the caller's timeout, not overload the
			// webhouse can shed work around: surface the context error so
			// the serving layer maps it to a timeout response.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, bud.Err()
		}
		wh.fallbackLocal(know, q, out)
	}
	out.Fully = out.FullyV == budget.Yes
	out.CertainlyNonEmpty = out.CertainlyNonEmptyV == budget.Yes
	// Unknown must not rule the source out: only an established No does.
	out.PossiblyNonEmpty = out.PossiblyNonEmptyV != budget.No
	// Completeness certificate, under its own bounded budget: exhausting the
	// request budget above must not erase the certificate (a degraded answer
	// is exactly when the caller needs to know what it can still trust), and
	// certification itself must never pin a goroutine — the greedy growth is
	// a handful of Corollary 3.15 checks, each step-bounded. When the main
	// budget already certified the whole query, Compute's first probe is a
	// decision-cache hit and the certificate is immediate.
	endCert := obs.FromContext(ctx).Stage("certify")
	out.Certificate = certify.Compute(know, q, budget.New(ctx, certifySteps(wh.effectiveSteps(ctx))))
	endCert(0)
	return out, nil
}

// certifySteps bounds one certificate computation: the configured request
// allowance when set, else the same generous-but-finite cap as the lossy
// fallback.
func certifySteps(configured int64) int64 {
	if configured > 0 {
		return configured
	}
	return fallbackSteps
}

// fallbackLocal resolves Unknown facets through the lossy-shrinking escape
// hatch (Proposition 3.13). The shrunk tree S satisfies rep(T) ⊆ rep(S), so
// only one direction of each verdict transfers soundly:
//
//   - FullyAnswerable(S) = yes  ⇒ fully answerable on T (∀ over a superset);
//   - CertainlyNonEmpty(S) = yes ⇒ certainly non-empty on T (same);
//   - PossiblyNonEmpty(S) = no  ⇒ possibly-non-empty is no on T (∃ fails
//     over the superset);
//
// and q(S) over-approximates the possible answers. Facets the fallback
// cannot decide soundly stay Unknown.
func (wh *Webhouse) fallbackLocal(know *itree.T, q query.Query, out *LocalAnswer) {
	shrunk := heuristics.LossyShrink(know, wh.shrinkCap())
	fb := budget.New(context.Background(), fallbackSteps)
	used := false
	if out.FullyV == budget.Unknown {
		if v, err := answer.FullyAnswerableBudgeted(shrunk, q, fb); err == nil && v == budget.Yes {
			out.FullyV = budget.Yes
			used = true
		}
	}
	if out.CertainlyNonEmptyV == budget.Unknown {
		if v, err := answer.CertainlyNonEmptyBudgeted(shrunk, q, fb); err == nil && v == budget.Yes {
			out.CertainlyNonEmptyV = budget.Yes
			used = true
		}
	}
	if out.PossiblyNonEmptyV == budget.Unknown {
		if v, err := answer.PossiblyNonEmptyBudgeted(shrunk, q, fb); err == nil && v == budget.No {
			out.PossiblyNonEmptyV = budget.No
			used = true
		}
	}
	if out.Possible == nil {
		if p, err := answer.ApplyBudgeted(shrunk, q, fb); err == nil {
			out.Possible = p
			out.PossibleLossy = true
			used = true
		}
	}
	if used {
		out.Lossy = true
		wh.lossyFallbacks.Add(1)
	}
}

// AnswerLocally answers q from the repository without contacting the
// source. Repeated calls with the same query on unchanged knowledge are
// served from the per-source cache; the independent sub-answers of a miss
// are fanned out across the worker pool under the caller's deadline.
func (wh *Webhouse) AnswerLocally(ctx context.Context, source string, q query.Query) (*LocalAnswer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := wh.Repo(source)
	if err != nil {
		return nil, err
	}
	// The canonical query string is interned once; the cache map is keyed by
	// the stable 8-byte ID, so repeated lookups compare and hash a word
	// instead of re-hashing the rendered query.
	key := intern.String(q.String())
	if la, ok := wh.lookupLocal(r, key); ok {
		cp := *la
		return &cp, nil
	}
	gen, know := r.snapshot()
	out, err := wh.computeLocal(ctx, know, q)
	if err != nil {
		return nil, err
	}
	// Degraded answers are never cached: a later request with headroom (or
	// a raised budget) must be able to compute the exact answer.
	if !out.BudgetExhausted {
		r.storeLocal(gen, key, out)
	}
	cp := *out
	return &cp, nil
}

// CompleteAnswer is the result of AnswerComplete. When the source was
// reachable, Answer is the exact answer. When it was not, Degraded is set:
// Answer is the query evaluated on the locally known data — a sound lower
// approximation — and Local carries the full Theorem 3.14 picture
// (possible-answers tree and modalities) computed from the same knowledge
// snapshot, never from a cache.
type CompleteAnswer struct {
	// Answer is the exact answer, or the known-data approximation when
	// Degraded.
	Answer tree.Tree
	// LocalQueries is the number of local queries the completion needed
	// (attempted, when Degraded).
	LocalQueries int
	// Degraded reports that the source was unavailable and Answer is the
	// approximate local answer.
	Degraded bool
	// Local is the Theorem 3.14 local answer backing a degraded result.
	Local *LocalAnswer
	// Cause is the source-access error behind a degraded result (it wraps
	// faulty.ErrUnavailable).
	Cause error
	// Certificate is the completeness certificate of Answer: full on the
	// exact paths (the completion reached the source, or Corollary 3.15
	// certified the whole query), and the degraded local answer's
	// certificate otherwise. Never nil on answers built by the webhouse;
	// read-only.
	Certificate *certify.Certificate
}

// degrade falls back to the best locally-computable approximation after a
// source failure, computing it fresh from the knowledge snapshot (a stale
// cached answer must never masquerade as the degraded result).
func (wh *Webhouse) degrade(ctx context.Context, know *itree.T, q query.Query, attempted int, cause error) (*CompleteAnswer, error) {
	la, err := wh.computeLocal(ctx, know, q)
	if err != nil {
		// Not even the local fallback fit in the deadline.
		return nil, errors.Join(cause, err)
	}
	wh.degraded.Add(1)
	return &CompleteAnswer{
		Answer:       la.Exact,
		LocalQueries: attempted,
		Degraded:     true,
		Local:        la,
		Cause:        cause,
		Certificate:  la.Certificate,
	}, nil
}

// askWhole poses q itself to the source and folds the answer in — the
// completion path used when nothing is known yet, or when a Theorem 3.19
// completion came back unusable (the source's ids rotated under us).
func (wh *Webhouse) askWhole(ctx context.Context, r *Repository, client faulty.SourceClient, know *itree.T, q query.Query) (*CompleteAnswer, error) {
	endSource := obs.FromContext(ctx).Stage("source")
	a, err := client.Ask(ctx, q)
	endSource(0)
	if err != nil {
		return wh.degrade(ctx, know, q, 1, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	defer obs.FromContext(ctx).Stage("fold")(0)
	if err := wh.observeLocked(ctx, r, q, a); err != nil {
		return nil, err
	}
	r.invalidate()
	wh.journalRecord(observeEventLocked(r, q, a))
	return &CompleteAnswer{Answer: a, LocalQueries: 1, Certificate: certify.Exact(q, a)}, nil
}

// AnswerComplete answers q exactly, contacting the source only as needed:
// if q is fully answerable the local answer is returned; otherwise the
// Theorem 3.19 completion is executed against the source through the
// repository's client, folded into the repository, and the query answered
// from the enriched data. No repository lock is held during source access,
// and the context's deadline bounds the whole call. If the source is
// unavailable (outage, open breaker, retries exhausted or precluded by the
// deadline) the result degrades to the approximate local answer with
// Degraded set — graceful degradation instead of an error or a hang.
func (wh *Webhouse) AnswerComplete(ctx context.Context, source string, q query.Query) (*CompleteAnswer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := wh.Repo(source)
	if err != nil {
		return nil, err
	}
	_, know := r.snapshot()
	// Unknown (budget exhausted) is treated as "not certified": the source
	// is contacted, which is always sound, merely less frugal.
	certBud := wh.newBudget(ctx)
	endCertify := obs.FromContext(ctx).Stage("certify")
	fullyV, err := answer.FullyAnswerableBudgeted(know, q, certBud)
	endCertify(certBud.Used())
	if err != nil && !errors.Is(err, budget.ErrExhausted) {
		return nil, err
	}
	if fullyV == budget.Yes {
		ans := q.Eval(know.DataTree())
		return &CompleteAnswer{Answer: ans, Certificate: certify.Exact(q, ans)}, nil
	}
	client := r.Client()
	if know.DataTree().Root == nil {
		// Nothing known: pose the query itself.
		return wh.askWhole(ctx, r, client, know, q)
	}
	ls, err := mediator.Complete(know, q)
	if err != nil {
		return nil, err
	}
	endSource := obs.FromContext(ctx).Stage("source")
	answers, err := mediator.ExecuteAllPool(ctx, engine.Default(), client, ls)
	endSource(0)
	if err != nil {
		return wh.degrade(ctx, know, q, len(ls), err)
	}
	// Merge the fetched prefixes into the known data and answer.
	merged, err := mediator.Merge(r.Source.Doc(), know.DataTree(), answers...)
	if err != nil {
		// A node id the current document does not contain: the source's ids
		// rotated between the knowledge snapshot and now, so the completion
		// answers are unusable. Re-pose the query wholesale — always sound,
		// merely less frugal — instead of merging a corrupt prefix.
		return wh.askWhole(ctx, r, client, know, q)
	}
	result := q.Eval(merged)
	// Fold the new information into the repository as a single observation:
	// the completion answers are prefixes of the document; re-observe q with
	// its exact answer, which Refine can absorb directly (with the usual
	// recovery if the source changed between the snapshot and now).
	r.mu.Lock()
	defer r.mu.Unlock()
	defer obs.FromContext(ctx).Stage("fold")(0)
	if err := wh.observeLocked(ctx, r, q, result); err != nil {
		return nil, err
	}
	r.invalidate()
	wh.journalRecord(observeEventLocked(r, q, result))
	return &CompleteAnswer{Answer: result, LocalQueries: len(ls), Certificate: certify.Exact(q, result)}, nil
}

// Refiner exposes the repository's refinement chain (for advanced use and
// testing). Not safe against concurrent acquisition.
func (r *Repository) Refiner() *refine.Refiner {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.refiner
}
