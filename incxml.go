// Package incxml is a Go implementation of the representation system for
// XML with incomplete information of Abiteboul, Segoufin and Vianu,
// "Representing and Querying XML with Incomplete Information" (PODS 2001).
//
// The package is a façade over the implementation packages: it re-exports
// the user-facing types and the operations corresponding to the paper's
// results, so that applications depend on one import path.
//
// # Model
//
//   - Tree / Node: unordered data trees with persistent node identifiers
//     and rational data values (Definition 2.1).
//   - TreeType: simplified DTDs — one multiplicity atom per element name
//     (Definition 2.2).
//   - Query: prefix-selection queries (ps-queries) with conditions and bar
//     (subtree-extraction) leaves.
//   - Incomplete: incomplete trees (Definition 2.7) — the representation
//     system; rep(T) semantics via Member/Empty/Enumerate, the Theorem 2.8
//     certain/possible-prefix tests, unambiguity (Definition 3.1).
//
// # Algorithms
//
//   - NewRefiner / Refiner.Observe: Algorithm Refine (Theorems 3.4, 3.5).
//   - Conjunctive / RefinePlus: conjunctive incomplete trees
//     (Theorems 3.8, 3.10; Corollary 3.9).
//   - ApplyQuery: q(T), the strong representation property (Theorem 3.14).
//   - FullyAnswerable: answering queries using views (Corollary 3.15).
//   - Complete: non-redundant mediator completions (Theorem 3.19).
//   - AdditionalQueries / LossyShrink: the Section 3.2 size heuristics.
//
// # Webhouse
//
// Webhouse ties everything together: registered sources are explored by
// ps-queries, knowledge accumulates as reachable incomplete trees, and user
// queries are answered locally (exactly or modally) or completed against
// the source.
package incxml

import (
	"incxml/internal/answer"
	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/cond"
	"incxml/internal/conj"
	"incxml/internal/dtd"
	"incxml/internal/engine"
	"incxml/internal/extquery"
	"incxml/internal/faulty"
	"incxml/internal/heuristics"
	"incxml/internal/intern"
	"incxml/internal/itree"
	"incxml/internal/mediator"
	"incxml/internal/obs"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/refine"
	"incxml/internal/serve"
	"incxml/internal/store"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
	"incxml/internal/xmlio"
)

// Core model types.
type (
	// Tree is a data tree (Definition 2.1).
	Tree = tree.Tree
	// Node is a data-tree node with persistent identifier, label and value.
	Node = tree.Node
	// NodeID identifies a node persistently across queries (Remark 2.4).
	NodeID = tree.NodeID
	// Label is an element name.
	Label = tree.Label
	// Rat is an exact rational data value.
	Rat = rat.Rat
	// Cond is a condition on data values (Boolean combination of
	// comparisons, kept in the Lemma 2.3 interval normal form).
	Cond = cond.Cond
	// TreeType is a simplified DTD (Definition 2.2).
	TreeType = dtd.Type
	// Query is a prefix-selection query.
	Query = query.Query
	// QueryNode is one pattern node of a ps-query.
	QueryNode = query.Node
	// Incomplete is an incomplete tree (Definition 2.7).
	Incomplete = itree.T
	// Conjunctive is a conjunctive incomplete tree (Section 3.2).
	Conjunctive = conj.T
	// Refiner maintains an incomplete tree over query-answer observations.
	Refiner = refine.Refiner
	// LocalQuery is a mediator query p@n (Section 3.4).
	LocalQuery = mediator.LocalQuery
	// Webhouse is the warehouse of incomplete source knowledge.
	Webhouse = webhouse.Webhouse
	// Source simulates a remote XML document.
	Source = webhouse.Source
	// LocalAnswer is the result of answering from local knowledge only.
	LocalAnswer = webhouse.LocalAnswer
	// CompleteAnswer is the result of AnswerComplete: exact when the source
	// was reachable, a flagged Theorem 3.14 approximation when it was not.
	CompleteAnswer = webhouse.CompleteAnswer
	// ExtendedAnswer is the result of answering a Section 4 extended query
	// from local knowledge (the conclusions' "more powerful local
	// language").
	ExtendedAnswer = webhouse.ExtendedAnswer
	// ExtQuery is a Section 4 extended query: branching, optional subtrees,
	// negation, data joins, recursive path expressions.
	ExtQuery = extquery.Query
	// ExtNode is one pattern node of an extended query.
	ExtNode = extquery.Node
)

// Tree construction and values.
var (
	// NewNode builds a node with a fresh persistent id.
	NewNode = tree.New
	// NewNodeID builds a node with an explicit id.
	NewNodeID = tree.NewID
	// FreshID allocates a process-unique node id.
	FreshID = tree.FreshID
	// Int converts an integer to a rational data value.
	Int = rat.FromInt
	// ParseRat parses a rational literal.
	ParseRat = rat.Parse
)

// Conditions.
var (
	// True is the vacuous condition.
	True = cond.True
	// False is the unsatisfiable condition.
	False = cond.False
	// Eq, Ne, Lt, Le, Gt, Ge build comparisons with a rational constant.
	Eq = cond.Eq
	Ne = cond.Ne
	Lt = cond.Lt
	Le = cond.Le
	Gt = cond.Gt
	Ge = cond.Ge
	// ParseCond parses a condition ("< 200", ">= 100 & != 150", ...).
	ParseCond = cond.Parse
)

// Types and queries.
var (
	// ParseType parses a tree type in the paper's textual syntax.
	ParseType = dtd.Parse
	// MustParseType panics on error; for literals.
	MustParseType = dtd.MustParse
	// ParseQuery parses a ps-query from its indented textual syntax.
	ParseQuery = query.Parse
	// MustParseQuery panics on error; for literals.
	MustParseQuery = query.MustParse
	// QN builds a query pattern node.
	QN = query.N
	// QBar builds a bar (subtree-extracting) query leaf.
	QBar = query.Bar
)

// The Refine chain (Section 3.1).
var (
	// NewRefiner starts an acquisition chain over the given alphabet with
	// an optional source type.
	NewRefiner = refine.NewRefiner
	// Universal is the incomplete tree representing all documents over Σ.
	Universal = refine.Universal
	// RefineStep is one application of Algorithm Refine (Theorem 3.4).
	RefineStep = refine.Refine
	// Intersect intersects two compatible unambiguous incomplete trees
	// (Lemma 3.3).
	Intersect = refine.Intersect
	// WithTreeType intersects an incomplete tree with a tree type
	// (Theorem 3.5).
	WithTreeType = refine.WithTreeType
	// Compact shrinks an incomplete tree without changing rep.
	Compact = refine.Compact
	// FromQueryAnswer builds T_{q,A} with rep = q⁻¹(A) (Lemma 3.2).
	FromQueryAnswer = refine.FromQueryAnswer
)

// Conjunctive trees (Section 3.2).
var (
	// NewConjunctive lifts an incomplete tree into a conjunctive one.
	NewConjunctive = conj.FromITree
)

// Querying incomplete trees (Section 3.3).
var (
	// ApplyQuery computes q(T) (Theorem 3.14).
	ApplyQuery = answer.Apply
	// FullyAnswerable decides whether q is answerable from the data tree
	// alone (Corollary 3.15).
	FullyAnswerable = answer.FullyAnswerable
	// CertainAnswerPrefix and PossibleAnswerPrefix are the Theorem 3.17
	// modalities.
	CertainAnswerPrefix  = answer.CertainAnswerPrefix
	PossibleAnswerPrefix = answer.PossibleAnswerPrefix
	// CertainlyNonEmpty and PossiblyNonEmpty are the Corollary 3.18
	// modalities.
	CertainlyNonEmpty = answer.CertainlyNonEmpty
	PossiblyNonEmpty  = answer.PossiblyNonEmpty
)

// Mediation (Section 3.4) and heuristics (Section 3.2).
var (
	// Complete generates a non-redundant completion (Theorem 3.19).
	Complete = mediator.Complete
	// MergePrefixes adjoins local answers to a known prefix.
	MergePrefixes = mediator.Merge
	// AdditionalQueries derives the Proposition 3.13 value-pinning queries.
	AdditionalQueries = heuristics.AdditionalQueries
	// LossyShrink trades rep precision for representation size.
	LossyShrink = heuristics.LossyShrink
)

// The webhouse.
var (
	// NewWebhouse creates an empty webhouse.
	NewWebhouse = webhouse.New
	// NewSource wraps a document as a simulated source.
	NewSource = webhouse.NewSource
)

// Fault-tolerant source access (the serving layer's failure model; see
// DESIGN.md). A webhouse reaches its sources through a SourceClient:
// compose NewRetryClient over NewFaultInjector (tests, simulations) or any
// custom transport, and install it with Webhouse.SetClient.
type (
	// SourceClient is context-threaded, possibly-failing source access.
	SourceClient = faulty.SourceClient
	// SourceBackend is an always-available in-memory source (Source
	// satisfies it).
	SourceBackend = faulty.Backend
	// FaultInjector wraps a backend with injectable latency, transient
	// errors and outages.
	FaultInjector = faulty.Injector
	// FaultInjectorConfig parameterizes a FaultInjector.
	FaultInjectorConfig = faulty.InjectorConfig
	// RetryClient adds exponential backoff, a circuit breaker and deadline
	// enforcement to a SourceClient.
	RetryClient = faulty.RetryClient
	// RetryConfig parameterizes a RetryClient.
	RetryConfig = faulty.RetryConfig
	// SourceClientStats snapshots a RetryClient's reliability counters.
	SourceClientStats = faulty.ClientStats
	// SourceError decorates a source failure with source name, operation
	// and transience.
	SourceError = faulty.SourceError
)

var (
	// NewDirectClient adapts a backend to SourceClient without faults.
	NewDirectClient = faulty.NewDirect
	// NewFaultInjector wraps a backend with injectable faults.
	NewFaultInjector = faulty.NewInjector
	// NewRetryClient wraps a client with retry + circuit-breaker policy.
	NewRetryClient = faulty.NewRetryClient
	// IsTransientSourceError reports whether an error is worth retrying.
	IsTransientSourceError = faulty.IsTransient
	// ErrSourceUnavailable marks definitive source unavailability (outage,
	// open breaker, retries exhausted).
	ErrSourceUnavailable = faulty.ErrUnavailable
	// ErrSourceTransient marks a retryable source failure.
	ErrSourceTransient = faulty.ErrTransient
)

// Serving-layer observability. The NP-hard solvers (conjunctive emptiness,
// bounded enumeration) are single-threaded pruned searches; the engine's
// worker pool only fans out the webhouse's local-answer facets and
// completion sub-requests, and its counters surface in WebhouseStats.
type (
	// EngineStats reports pool utilization counters.
	EngineStats = engine.Stats
	// CacheStats reports hit/miss/eviction counters of a shared cache.
	CacheStats = engine.CacheStats
	// WebhouseStats aggregates the serving-layer counters.
	WebhouseStats = webhouse.Stats
	// InternID is the stable 64-bit handle of an interned value (see
	// "Hash-consing & interning" in DESIGN.md). Valid within one process.
	InternID = intern.ID
	// InternTableStats reports one intern table's entry count, hit/miss
	// traffic and bytes saved through sharing.
	InternTableStats = intern.TableStats
)

var (
	// MembershipCacheStats reports the shared membership/prefix cache.
	MembershipCacheStats = itree.CacheStats
	// DecisionCacheStats reports the query-decision cache.
	DecisionCacheStats = answer.CacheStats
	// InternStats snapshots the process-global intern tables.
	InternStats = intern.Stats
	// InternTree hash-conses a data tree, returning its stable ID: equal
	// trees (children order ignored) share one ID, making repeated
	// comparisons and cache keys word-sized.
	InternTree = intern.Tree
	// InternCond interns a condition by its canonical interval form.
	InternCond = intern.Cond
)

// Resource budgets (see "Resource budgets & overload control" in
// DESIGN.md). The NP-hard deciders have budget-guarded three-valued
// variants: they charge a Budget per unit of work and answer
// TriYes/TriNo only when exact — TriUnknown, carrying an error matching
// ErrBudgetExhausted, is the only degraded verdict. A nil Budget means
// unlimited.
type (
	// Budget couples a step allowance to a context deadline; solvers
	// charge it cooperatively.
	Budget = budget.B
	// Tri is a three-valued verdict: TriNo (zero value), TriYes,
	// TriUnknown.
	Tri = budget.Tri
	// BudgetError reports an exhausted budget and its cause (steps or
	// deadline).
	BudgetError = budget.Error
	// ServeConfig parameterizes the HTTP serving layer: deadline,
	// admission limits (MaxInflight, Queue), per-request step budget, and
	// injected source faults.
	ServeConfig = serve.Config
	// ServeStats aggregates webhouse counters with the admission-control
	// shed and panic-recovery counters.
	ServeStats = serve.Stats
)

// Tri verdicts.
const (
	TriNo      = budget.No
	TriYes     = budget.Yes
	TriUnknown = budget.Unknown
)

var (
	// NewBudget allots steps (<=0: deadline-only) under ctx's deadline.
	NewBudget = budget.New
	// TriOf lifts an exactly-computed bool into a Tri.
	TriOf = budget.Of
	// ErrBudgetExhausted matches any exhausted-budget error (errors.Is).
	ErrBudgetExhausted = budget.ErrExhausted
	// ApplyQueryBudgeted is ApplyQuery under a budget.
	ApplyQueryBudgeted = answer.ApplyBudgeted
	// FullyAnswerableBudgeted is the three-valued Corollary 3.15 decision.
	FullyAnswerableBudgeted = answer.FullyAnswerableBudgeted
	// CertainlyNonEmptyBudgeted is the three-valued "certain" Corollary
	// 3.18 modality.
	CertainlyNonEmptyBudgeted = answer.CertainlyNonEmptyBudgeted
	// PossiblyNonEmptyBudgeted is the three-valued "possible" Corollary
	// 3.18 modality.
	PossiblyNonEmptyBudgeted = answer.PossiblyNonEmptyBudgeted
	// RefineBudgeted is one budget-guarded application of Algorithm Refine.
	RefineBudgeted = refine.RefineBudgeted
	// IntersectBudgeted is Lemma 3.3 intersection under a budget.
	IntersectBudgeted = refine.IntersectBudgeted
	// NewServer builds the HTTP serving layer (admission control, budgets,
	// panic containment) over a webhouse with the standard sources.
	NewServer = serve.New
)

// Completeness certificates (see "Completeness certificates" in
// DESIGN.md). Every answer carries a Certificate naming the maximal
// sub-query provably answered completely from the certain fragment of the
// local knowledge (budgeted Corollary 3.15 checks); the serving layer
// renders certificate and answer together in the versioned AnswerEnvelope.
type (
	// Certificate is a completeness certificate: the maximal certified
	// sub-query, its completeness ratio, and the certain-region summary.
	Certificate = certify.Certificate
	// CertificateVerdict classifies a certificate: full, partial, unknown.
	CertificateVerdict = certify.Verdict
	// AnswerEnvelope is the serving layer's versioned answer document
	// (schema version 1): answer payload, modal facets, completion and
	// scatter summaries, and the completeness certificate.
	AnswerEnvelope = serve.AnswerEnvelope
	// AnswerRequest is the request body of the five ps-query answer
	// routes: source, query, step budget and consistency level.
	AnswerRequest = serve.AnswerRequest
)

// Certificate verdicts.
const (
	// CertifiedFull marks a certificate covering the whole query.
	CertifiedFull = certify.Full
	// CertifiedPartial marks a proper, provably complete sub-query.
	CertifiedPartial = certify.Partial
	// CertifiedUnknown marks a certificate degraded by budget exhaustion
	// or a dead source; it never overclaims.
	CertifiedUnknown = certify.Unknown
)

var (
	// ComputeCertificate certifies a query against one source's knowledge
	// under an optional budget (nil: unlimited).
	ComputeCertificate = certify.Compute
	// ExactCertificate is the trivial full certificate for an exactly
	// computed answer.
	ExactCertificate = certify.Exact
	// MergeCertificates intersects per-source certificates and re-verifies
	// the intersection against every contributor's knowledge (full
	// answerability is not antitone, so the intersection is only a
	// candidate until re-proved).
	MergeCertificates = certify.Merge
	// CertifiedSubquery rebuilds the certified sub-query from a
	// certificate's prefix-closed path set.
	CertifiedSubquery = certify.Subquery
	// CompletenessRatio returns a certificate's ratio, tolerating nil.
	CompletenessRatio = certify.CompletenessRatio
)

// Observability (see "Observability" in DESIGN.md). Every layer records
// into metric families named incxml_*; the serving layer exposes them at
// GET /metrics in Prometheus text format. Recording is on by default and
// can be disabled process-wide, turning every handle into a no-op.
type (
	// MetricsRegistry is a set of metric families; DefaultMetrics holds
	// the process-global families every layer records into.
	MetricsRegistry = obs.Registry
	// Trace is a lightweight per-request span trace; the serving layer
	// attaches one (Config.Trace) and echoes it in the X-Trace header.
	Trace = obs.Trace
)

var (
	// DefaultMetrics returns the process-global registry.
	DefaultMetrics = obs.Default
	// NewMetricsRegistry builds an empty registry (per-server families).
	NewMetricsRegistry = obs.NewRegistry
	// SetMetricsEnabled toggles all recording process-wide and returns
	// the previous setting.
	SetMetricsEnabled = obs.SetEnabled
	// StartTrace begins a per-request trace (nil when recording is off).
	StartTrace = obs.StartTrace
	// WithTrace and TraceFromContext carry a Trace through a context.
	WithTrace = obs.WithTrace
	// TraceFromContext retrieves the context's Trace (nil-safe).
	TraceFromContext = obs.FromContext
)

// Durable persistence (see "Durability & crash recovery" in DESIGN.md). A
// Store journals every acquisition mutation to a checksummed WAL and
// periodically snapshots each repository in a canonical binary codec;
// OpenStoreOrRecover replays whatever survives a crash back into a freshly
// registered webhouse — exactly the pre-crash state, or a quarantined
// (served-but-degraded) repository when the files are beyond repair.
type (
	// Store is the per-webhouse durability layer: snapshot files plus a
	// checksummed write-ahead log of acquisition events.
	Store = store.Store
	// StoreOptions parameterizes a Store: data directory, snapshot
	// cadence, logger.
	StoreOptions = store.Options
	// StoreRecovery reports what a recovery did: snapshots loaded, events
	// replayed, corrupt records dropped, repositories quarantined.
	StoreRecovery = store.Recovery
	// RepositorySnapshot is one repository's durable state in the
	// canonical binary form — the snapshot file payload and the
	// rebalancing transfer unit.
	RepositorySnapshot = store.SnapshotPayload
	// AcquisitionJournal receives every applied acquisition mutation
	// (Store implements it; Webhouse.SetJournal installs it).
	AcquisitionJournal = webhouse.Journal
	// AcquisitionEvent is one journaled mutation: an observation fold, an
	// invalidation, a document update, or a wholesale state restore.
	AcquisitionEvent = webhouse.JournalEvent
)

var (
	// OpenStoreOrRecover opens a store, recovers its contents into the
	// webhouse, and attaches the journal for subsequent mutations.
	OpenStoreOrRecover = store.OpenOrRecover
	// EncodeRepositorySnapshot and DecodeRepositorySnapshot are the
	// canonical binary codec of a repository's durable state.
	EncodeRepositorySnapshot = store.EncodeSnapshotPayload
	// DecodeRepositorySnapshot decodes EncodeRepositorySnapshot's bytes.
	DecodeRepositorySnapshot = store.DecodeSnapshotPayload
	// EncodeTreeBinary and DecodeTreeBinary are the canonical binary codec
	// of data trees (intern-aware string sections, deterministic bytes).
	EncodeTreeBinary = store.EncodeTree
	// DecodeTreeBinary decodes EncodeTreeBinary's bytes.
	DecodeTreeBinary = store.DecodeTree
	// EncodeIncompleteBinary and DecodeIncompleteBinary are the canonical
	// binary codec of incomplete trees.
	EncodeIncompleteBinary = store.EncodeIncomplete
	// DecodeIncompleteBinary decodes EncodeIncompleteBinary's bytes.
	DecodeIncompleteBinary = store.DecodeIncomplete
	// ErrCorruptStore matches any decode failure of persisted bytes
	// (errors.Is); corrupt data degrades, it never panics.
	ErrCorruptStore = store.ErrCorrupt
)

// XML serialization.
var (
	// MarshalXML serializes a data tree as XML.
	MarshalXML = xmlio.Marshal
	// UnmarshalXML parses a data tree from XML.
	UnmarshalXML = xmlio.Unmarshal
	// MarshalIncompleteXML renders an incomplete tree as a browsable XML
	// document.
	MarshalIncompleteXML = xmlio.MarshalIncomplete
)
