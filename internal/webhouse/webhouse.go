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
// exclusive; no lock is held across source I/O. Local and extended answers,
// and the certified answers of fully answerable queries, are memoized on the
// knowledge snapshot they were computed from, under the query's canonical
// string: a fold replaces the snapshot, so a stored answer is never served
// once the knowledge has changed.
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
// mu guards the refiner (the knowledge). It is never held across source
// I/O: the client is called between the knowledge snapshot and the fold-in.
// Answers live on the snapshot (itree.T.Remember), so installing or
// refolding the refiner is the only invalidation there is.
type Repository struct {
	Source *Source

	clientMu sync.RWMutex
	client   faulty.SourceClient

	mu      sync.RWMutex
	refiner *refine.Refiner

	// quarantined marks a repository recovery could not restore: it serves
	// from pristine (empty) knowledge, flagged so operators and stats can
	// tell degraded-by-design from healthy (see Webhouse.Quarantine).
	quarantined atomic.Bool
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
	// (0 = step-unlimited; the context deadline still applies).
	budgetSteps       atomic.Int64
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

// Stats aggregates the serving-layer counters: the answers and decisions
// memoized on the knowledge snapshots, source-access reliability, and the
// worker pool.
type Stats struct {
	// AnswerCacheHits/Misses count AnswerLocally and AnswerExtended lookups
	// served from (resp. missing) the answers memoized on the knowledge
	// snapshots. These are per-webhouse.
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
	// Decision counts the answer package's decision-memo lookups. The
	// verdicts live on the knowledge snapshots, but the counters are
	// PROCESS-GLOBAL: all webhouses (and direct answer callers) in the
	// process add to them, so two webhouses in one process deliberately see
	// each other's traffic here; treat them as process gauges, not
	// per-webhouse ones.
	Decision answer.CacheStats
	// Engine reports the process-global default pool's utilization (a
	// process gauge, like Decision).
	Engine engine.Stats
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
		Decision:          answer.DecisionStats(),
		Engine:            engine.Default().Stats(),
	}
}

// foldLocked folds the answer a of query q into r with the paper's recovery
// strategy: when the observation contradicts the accumulated knowledge —
// the source changed under us — it is folded into a fresh refiner for the
// source type, which replaces the knowledge only when that fold succeeds.
// On any error r is left as it was. Each fold runs under a budget from bud
// (nil: exact); degraded reports that the fold that took effect went
// through the lossy fallback. The caller must hold r.mu for writing.
//
// A redundant observation is not folded: when the knowledge snapshot
// certifies q fully answerable and a is q(data(T)), every world of rep(T)
// already answers a, so rep(Refine(T, q, a)) = rep(T) (Corollary 3.15) and
// the refiner, its snapshot and the answers memoized on it are kept; the
// snapshot's certified answer is then returned as redundant. The verdict is
// the exact one, never a budgeted Unknown, so that live folds and
// recovery's replay of the same journal skip the same observations. A
// refiner that has observed nothing yet is not checked: it knows no data to
// certify an answer from.
func (r *Repository) foldLocked(q query.Query, a tree.Tree, bud func() *budget.B) (redundant *ExactAnswer, degraded bool, err error) {
	if r.refiner.Steps() > 0 {
		if ex, _ := certified(r.refiner.Reachable(), q, nil); ex != nil && ex.Answer.Equal(a) {
			refine.CountRedundant()
			return ex, false, nil
		}
	}
	degraded, err = r.refiner.ObserveBudgeted(q, a, bud())
	if !errors.Is(err, refine.ErrInconsistent) {
		return nil, degraded, err
	}
	fresh := refine.NewRefiner(r.Source.Type.Alphabet(), r.Source.Type)
	if degraded, err = fresh.ObserveBudgeted(q, a, bud()); err == nil {
		r.refiner = fresh
	}
	return nil, degraded, err
}

// ExactAnswer is an answer known to be exact, with its full completeness
// certificate (certify.Exact): the source's own answer to an acquisition,
// or q(data(T)) on knowledge that certifies q fully answerable. The
// certified ones are memoized on the knowledge snapshot and shared by every
// caller: treat them as read-only.
type ExactAnswer struct {
	Answer      tree.Tree
	Certificate *certify.Certificate
}

// certified is the Corollary 3.15 shortcut: when know certifies q fully
// answerable under bud (nil: exact), every world of rep(T) answers
// q(data(T)), so that answer is exact without the source. It returns nil
// unless the verdict is Yes; err is the decider's. A Yes is definite at any
// budget, so the answer and its certificate are a function of the snapshot
// and q alone: they are built once per marked snapshot and query and
// memoized on it (itree.MemoCertified).
func certified(know *itree.T, q query.Query, bud *budget.B) (*ExactAnswer, error) {
	key := q.String()
	if v, ok := know.Recall(itree.MemoCertified, key); ok {
		return v.(*ExactAnswer), nil
	}
	fully, err := answer.FullyAnswerableBudgeted(know, q, bud)
	if fully != budget.Yes {
		return nil, err
	}
	ans := q.Eval(know.DataTree())
	ex := &ExactAnswer{Answer: ans, Certificate: certify.Exact(q, ans)}
	know.Remember(itree.MemoCertified, key, ex)
	return ex, nil
}

// errReset reports that a reset replaced the refiner a completion's
// knowledge snapshot came from before its answer could be folded.
var errReset = errors.New("webhouse: knowledge reset since the snapshot")

// fold is the tail every acquisition shares. It folds the answer a of q
// into r (foldIn) and returns a as an exact answer: the snapshot's memoized
// certified answer, which equals a, when the observation was redundant, and
// otherwise a with a certificate built here, outside r's lock. With
// snapshot set it also returns the knowledge snapshot after the fold, which
// the answer belongs to (see foldIn).
func (wh *Webhouse) fold(ctx context.Context, r *Repository, from *refine.Refiner, q query.Query, a tree.Tree, snapshot bool) (*ExactAnswer, *itree.T, error) {
	redundant, know, err := wh.foldIn(ctx, r, from, q, a, snapshot)
	if err != nil || redundant != nil {
		return redundant, know, err
	}
	return &ExactAnswer{Answer: a, Certificate: certify.Exact(q, a)}, know, nil
}

// foldIn, under r's write lock and the request's fold stage, folds the
// answer a of q into r (foldLocked) under the webhouse budget and journals
// the observation. On exhaustion the refiner degrades to the Proposition
// 3.13 lossy shrink rather than dropping the (already paid-for) source
// answer, so acquisition never fails on budget grounds — it merely
// coarsens. A non-nil from is the refiner the caller's snapshot came from:
// when Invalidate, Update, RestoreKnowledge or the inconsistency recovery
// has replaced it since, nothing is folded and errReset is returned.
//
// With snapshot set it also returns the knowledge snapshot after the fold,
// read before r's lock is released, so no later fold can slip in between.
// A completion asks for it, because a scatter merges the completion's
// certificate against it (CompleteAnswer.Knowledge). An exploration does
// not: after an informative fold that snapshot is a new compaction, which
// the next reader builds anyway, and Explore would otherwise pay it itself.
func (wh *Webhouse) foldIn(ctx context.Context, r *Repository, from *refine.Refiner, q query.Query, a tree.Tree, snapshot bool) (redundant *ExactAnswer, know *itree.T, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from != nil && r.refiner != from {
		return nil, nil, errReset
	}
	defer obs.FromContext(ctx).Stage("fold")(0)
	redundant, degraded, err := r.foldLocked(q, a, func() *budget.B { return wh.newBudget(ctx) })
	if degraded {
		wh.lossyFallbacks.Add(1)
	}
	if err != nil {
		return nil, nil, err
	}
	wh.journalRecord(JournalEvent{Kind: EventObserve, Source: r.Source.Name, Query: q, Answer: a,
		Knowledge: r.refiner.Tree(), Steps: r.refiner.Steps(), Lossy: r.refiner.Lossy()})
	if snapshot {
		know = r.refiner.Reachable()
	}
	return redundant, know, nil
}

// Explore poses a ps-query to the source and folds the answer into the
// repository (the acquisition loop of Section 3.1). The source is reached
// through the repository's client outside any repository lock, so a slow
// source never blocks concurrent readers; the context's deadline bounds
// the call, retries included. An informative fold replaces the knowledge
// snapshot, and with it every answer memoized on the old one; a redundant
// one keeps both (foldLocked), and is journaled all the same. The source's
// answer is returned with its full certificate; after a redundant
// observation both are the snapshot's memoized certified answer, which is
// tree.Equal to the source's. When the source is unavailable the returned
// error wraps faulty.ErrUnavailable and the knowledge is left unchanged —
// acquisition, unlike AnswerComplete, has no approximate fallback.
func (wh *Webhouse) Explore(ctx context.Context, source string, q query.Query) (*ExactAnswer, error) {
	r, err := wh.Repo(source)
	if err != nil {
		return nil, err
	}
	endSource := obs.FromContext(ctx).Stage("source")
	a, err := r.Client().Ask(ctx, q)
	endSource(0)
	if err != nil {
		return nil, fmt.Errorf("webhouse: explore %q: %w", source, err)
	}
	ex, _, err := wh.fold(ctx, r, nil, q, a, false)
	return ex, err
}

// Knowledge returns the reachable incomplete tree for the source. The
// returned tree is a snapshot: later Explore calls do not mutate it. It is
// memoized per refiner state (refine.Refiner.Reachable), so every reader
// between two folds shares the same tree: treat it as read-only.
func (wh *Webhouse) Knowledge(source string) (*itree.T, error) {
	r, err := wh.Repo(source)
	if err != nil {
		return nil, err
	}
	know, _ := r.snapshot()
	return know, nil
}

// Invalidate reinitializes the knowledge about a source to its tree type
// (the paper's treatment of source updates); answers memoized on the old
// knowledge are no longer served.
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
// knowledge in one step.
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

// LocalAnswer is the result of answering a query from local knowledge only:
// the exact answer on the data tree and the verdicts, which is all that is
// memoized on the knowledge snapshot. The possible-answers tree q(T) behind
// the verdicts is kept only by a degraded CompleteAnswer. Instances returned
// by AnswerLocally may be shared between callers; treat them as read-only.
type LocalAnswer struct {
	// Fully reports whether the query was certified fully answerable
	// (Corollary 3.15): Exact then equals q(T) for every possible world.
	Fully bool
	// Exact is the answer computed on the data tree (meaningful when Fully).
	// It may share nodes with the knowledge snapshot's data tree
	// (tree.Tree.PrefixOn): read-only.
	Exact tree.Tree
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
	// Proposition 3.13 lossy-shrinking fallback.
	Lossy bool
	// BudgetExhausted reports that the request budget ran out while
	// computing this answer (the answer is then never memoized).
	BudgetExhausted bool
	// Certificate is the completeness certificate: the maximal sub-query
	// (under the certify budget) for which Exact is provably complete, plus
	// the certain-region summary. Never nil on answers built by the
	// webhouse; read-only.
	Certificate *certify.Certificate
	// Knowledge is the snapshot the answer and its certificate were
	// computed on.
	Knowledge *itree.T
}

// memoAnswer is an answer kind memoized on the knowledge snapshot: a
// pointer to the answer struct, which reports whether its budget ran out.
type memoAnswer[A any] interface {
	*A
	exhausted() bool
}

func (la *LocalAnswer) exhausted() bool    { return la.BudgetExhausted }
func (ea *ExtendedAnswer) exhausted() bool { return ea.BudgetExhausted }

// memoized is the one memoized-answer path, shared by AnswerLocally and
// AnswerExtended. It serves the answer of the given kind memoized on the
// source's knowledge snapshot under key, or computes it on that snapshot
// and memoizes it unless its budget ran out: a later request with headroom
// (or a raised budget) must be able to compute the exact answer. Each
// lookup counts as an answer-cache hit or miss, and each caller gets its
// own copy of the answer struct.
func memoized[A any, P memoAnswer[A]](ctx context.Context, wh *Webhouse, source string,
	kind uint8, key string, compute func(know *itree.T) (P, error)) (P, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := wh.Repo(source)
	if err != nil {
		return nil, err
	}
	know, _ := r.snapshot()
	if v, ok := know.Recall(kind, key); ok {
		wh.cacheHits.Add(1)
		cp := *v.(P)
		return &cp, nil
	}
	wh.cacheMisses.Add(1)
	out, err := compute(know)
	if err != nil {
		return nil, err
	}
	if !out.exhausted() {
		know.Remember(kind, key, out)
	}
	cp := *out
	return &cp, nil
}

// exhaustion applies the budget-exhaustion policy to a budgeted
// computation's error. It returns nil when the step allowance ran out: the
// caller then degrades soundly. Otherwise it returns the error to fail
// with: a deadline as the context's error, which the serving layer maps to
// a timeout (it is the caller's timeout, not overload the webhouse can
// shed work around), and any other error as is. Every exhaustion counts in
// BudgetExhaustions.
func (wh *Webhouse) exhaustion(ctx context.Context, bud *budget.B, err error) error {
	if !errors.Is(err, budget.ErrExhausted) {
		return err
	}
	wh.budgetExhaustions.Add(1)
	if bud.ExhaustedCause() != budget.CauseDeadline {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return bud.Err()
}

// snapshot returns the repository's knowledge — the refiner's shared,
// read-only reachable tree, which carries the memo of answers about it —
// and the refiner it came from.
func (r *Repository) snapshot() (*itree.T, *refine.Refiner) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.refiner.Reachable(), r.refiner
}

// fallbackSteps bounds the lossy-fallback recomputation: the shrunk tree is
// small by construction, so this allowance is generous for it while still
// guaranteeing the fallback itself terminates promptly.
const fallbackSteps = 1 << 20

// computeLocal answers q on know across the worker pool: the data-tree
// evaluation and the local-answer facets (q(T), built once, and the three
// verdicts derived from it) run as two tasks, honoring the context's
// deadline and the webhouse's per-request step budget. When the deadline
// expires before both ran, the context error is returned instead of a
// partial answer. When the step allowance runs out, the facets degrade
// soundly through the Proposition 3.13 lossy-shrinking fallback: verdicts
// that the rep-superset decides in the sound direction (Fully/
// CertainlyNonEmpty Yes, PossiblyNonEmpty No) are kept exact, the rest
// report Unknown. Besides the answer it returns q(T), the tree of possible
// answers (nil when none fit the budgets), and whether that tree came from
// the lossy fallback, for the caller that keeps it (degrade).
func (wh *Webhouse) computeLocal(ctx context.Context, know *itree.T, q query.Query) (out *LocalAnswer, possible *itree.T, possibleLossy bool, err error) {
	bud := wh.newBudget(ctx)
	endStage := obs.FromContext(ctx).Stage("local")
	defer func() {
		used := bud.Used()
		stepsUsed.Observe(used)
		endStage(used)
	}()
	out = &LocalAnswer{Knowledge: know}
	var f answer.Local
	tasks := []func(){
		func() { out.Exact = q.Eval(know.DataTree()) },
		func() { f, err = answer.Facets(know, q, bud) },
	}
	if err := engine.Default().Each(ctx, len(tasks), func(i int) { tasks[i]() }); err != nil {
		return nil, nil, false, err
	}
	possible, out.FullyV, out.CertainlyNonEmptyV, out.PossiblyNonEmptyV = f.Possible, f.Fully, f.CertainlyNonEmpty, f.PossiblyNonEmpty
	if err != nil {
		if err := wh.exhaustion(ctx, bud, err); err != nil {
			return nil, nil, false, err
		}
		out.BudgetExhausted = true
		if p := wh.fallbackLocal(know, q, out); p != nil {
			possible, possibleLossy = p, true
		}
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
	return out, possible, possibleLossy, nil
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
// and q(S), which it returns when it fit the fallback's budget,
// over-approximates the possible answers. Facets the fallback cannot decide
// soundly stay Unknown.
func (wh *Webhouse) fallbackLocal(know *itree.T, q query.Query, out *LocalAnswer) (possible *itree.T) {
	shrunk := heuristics.LossyShrink(know, refine.DefaultShrinkTo)
	fb, err := answer.Facets(shrunk, q, budget.New(context.Background(), fallbackSteps))
	used := false
	if out.FullyV == budget.Unknown && fb.Fully == budget.Yes {
		out.FullyV = budget.Yes
		used = true
	}
	if out.CertainlyNonEmptyV == budget.Unknown && fb.CertainlyNonEmpty == budget.Yes {
		out.CertainlyNonEmptyV = budget.Yes
		used = true
	}
	if out.PossiblyNonEmptyV == budget.Unknown && fb.PossiblyNonEmpty == budget.No {
		out.PossiblyNonEmptyV = budget.No
		used = true
	}
	if err == nil {
		possible = fb.Possible
		used = true
	}
	if used {
		out.Lossy = true
		wh.lossyFallbacks.Add(1)
	}
	return possible
}

// AnswerLocally answers q from the repository without contacting the
// source. Repeated calls with the same query on unchanged knowledge are
// served from the answer memoized on the knowledge snapshot; the
// independent sub-answers of a miss are fanned out across the worker pool
// under the caller's deadline.
func (wh *Webhouse) AnswerLocally(ctx context.Context, source string, q query.Query) (*LocalAnswer, error) {
	return memoized(ctx, wh, source, itree.MemoLocal, q.String(), func(know *itree.T) (*LocalAnswer, error) {
		la, _, _, err := wh.computeLocal(ctx, know, q)
		return la, err
	})
}

// CompleteAnswer is the result of AnswerComplete. When the source was
// reachable, Answer is the exact answer. When it was not, Degraded is set:
// Answer is the query evaluated on the locally known data — a sound lower
// approximation — and Local and Possible carry the full Theorem 3.14
// picture (modalities and possible-answers tree) computed from the same
// knowledge snapshot, never from the memo.
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
	// Possible is the incomplete tree q(T) describing all possible answers
	// (Theorem 3.14) backing a degraded result; nil when it did not fit the
	// budget. When PossibleLossy is set it was computed from a lossy-shrunk
	// knowledge tree and over-approximates the possible answers (still
	// sound as a set of candidates).
	Possible      *itree.T
	PossibleLossy bool
	// Cause is the source-access error behind a degraded result (it wraps
	// faulty.ErrUnavailable).
	Cause error
	// Certificate is the completeness certificate of Answer: full on the
	// exact paths (the completion reached the source, or Corollary 3.15
	// certified the whole query), and the degraded local answer's
	// certificate otherwise. Never nil on answers built by the webhouse;
	// read-only.
	Certificate *certify.Certificate
	// Knowledge is the snapshot the answer belongs to: the one that
	// certified it, the one the fold of the source's answer produced, or
	// the one a degraded answer was computed on.
	Knowledge *itree.T
}

// degrade falls back to the best locally-computable approximation after a
// source failure, computing it fresh from the knowledge snapshot.
func (wh *Webhouse) degrade(ctx context.Context, know *itree.T, q query.Query, attempted int, cause error) (*CompleteAnswer, error) {
	la, possible, possibleLossy, err := wh.computeLocal(ctx, know, q)
	if err != nil {
		// Not even the local fallback fit in the deadline.
		return nil, errors.Join(cause, err)
	}
	wh.degraded.Add(1)
	return &CompleteAnswer{
		Answer:        la.Exact,
		LocalQueries:  attempted,
		Degraded:      true,
		Local:         la,
		Possible:      possible,
		PossibleLossy: possibleLossy,
		Cause:         cause,
		Certificate:   la.Certificate,
		Knowledge:     know,
	}, nil
}

// askWhole poses q itself to the source and folds the answer in — the
// completion path used when nothing is known yet, or when a Theorem 3.19
// completion came back unusable. When the source is unavailable it degrades
// from the current knowledge snapshot.
func (wh *Webhouse) askWhole(ctx context.Context, r *Repository, client faulty.SourceClient, q query.Query) (*CompleteAnswer, error) {
	endSource := obs.FromContext(ctx).Stage("source")
	a, err := client.Ask(ctx, q)
	endSource(0)
	if err != nil {
		know, _ := r.snapshot()
		return wh.degrade(ctx, know, q, 1, err)
	}
	ex, after, err := wh.fold(ctx, r, nil, q, a, true)
	if err != nil {
		return nil, err
	}
	return &CompleteAnswer{Answer: ex.Answer, LocalQueries: 1, Certificate: ex.Certificate, Knowledge: after}, nil
}

// AnswerComplete answers q exactly, contacting the source only as needed:
// if q is fully answerable the local answer is returned; otherwise the
// Theorem 3.19 completion is executed against the source through the
// repository's client, the query is answered on the known data merged with
// the completion's answers alone, and that answer is folded into the
// repository. No repository lock is held during source access,
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
	know, base := r.snapshot()
	// Unknown (budget exhausted) is treated as "not certified": the source
	// is contacted, which is always sound, merely less frugal.
	certBud := wh.newBudget(ctx)
	endCertify := obs.FromContext(ctx).Stage("certify")
	ex, err := certified(know, q, certBud)
	endCertify(certBud.Used())
	if err != nil && !errors.Is(err, budget.ErrExhausted) {
		return nil, err
	}
	if ex != nil {
		return &CompleteAnswer{Answer: ex.Answer, Certificate: ex.Certificate, Knowledge: know}, nil
	}
	client := r.Client()
	if know.DataTree().Root == nil {
		// Nothing known: pose the query itself.
		return wh.askWhole(ctx, r, client, q)
	}
	ls, err := mediator.Complete(know, q)
	if err != nil {
		return nil, err
	}
	endSource := obs.FromContext(ctx).Stage("source")
	answers, err := mediator.ExecuteAll(ctx, nil, client, ls)
	endSource(0)
	if err != nil {
		return wh.degrade(ctx, know, q, len(ls), err)
	}
	// Adjoin the fetched prefixes to the known data, answer q on the union
	// and fold that answer in as one observation of q, which Refine absorbs
	// directly (with the usual recovery if the source changed since).
	merged, err := mediator.Merge(know.DataTree(), answers...)
	if err == nil {
		ex, after, err := wh.fold(ctx, r, base, q, q.Eval(merged), true)
		if err == nil {
			return &CompleteAnswer{Answer: ex.Answer, LocalQueries: len(ls), Certificate: ex.Certificate, Knowledge: after}, nil
		}
		if !errors.Is(err, errReset) {
			return nil, err
		}
	}
	// The completion is unusable: its answers disagree with the known data
	// (the source's ids rotated under us), or a reset dropped the knowledge
	// they extend. Re-pose the query wholesale — always sound, merely less
	// frugal — instead of folding a corrupt or stale prefix.
	return wh.askWhole(ctx, r, client, q)
}
