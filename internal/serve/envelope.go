package serve

import (
	"fmt"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/query"
	"incxml/internal/shard"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
	"incxml/internal/xmlio"
)

// EnvelopeVersion is the answer-envelope schema version. It is the only
// version served: a request naming another one (?v= or Accept-Version) is a
// 400.
const EnvelopeVersion = 1

// AnswerEnvelope is the single versioned response shape of every answer
// route: one envelope, built by one renderer (request.render). Beyond
// Answer and Completeness, which every route answering with a document
// carries, a route fills only the sections that describe its answer.
type AnswerEnvelope struct {
	// V is the schema version (EnvelopeVersion).
	V int `json:"v"`
	// Route names the answer route that produced the envelope: "explore",
	// "local", "complete", "scatter_local", "scatter_complete",
	// "ext_query", "ext_reduction" or "scatter_ext".
	Route string `json:"route"`
	// Source is the source the answer is about; empty on scatter envelopes
	// (the per-source breakdown lives in Scatter.Answers).
	Source string `json:"source,omitempty"`
	// Degraded reports an answer served without what the route normally
	// relies on: a source outage softened to the Theorem 3.14 approximation,
	// an /explore answered from the knowledge alone during an outage
	// (exact, since Corollary 3.15 certified the query, but nothing was
	// acquired), or any degraded shard in a scatter. Cause carries the
	// reason when one is known.
	Degraded bool   `json:"degraded"`
	Cause    string `json:"cause,omitempty"`
	// Answer is the gathered answer document; nil on scatter envelopes
	// (per-source answers live in Scatter.Answers).
	Answer *AnswerPayload `json:"answer,omitempty"`
	// Local carries the Theorem 3.14 facets of a local answer (and of a
	// degraded completion's backing local answer).
	Local *LocalFacets `json:"local,omitempty"`
	// Completion carries the Theorem 3.19 completion accounting.
	Completion *CompletionInfo `json:"completion,omitempty"`
	// Completeness is the completeness certificate (scatter-wide, on
	// scatter envelopes).
	Completeness *Completeness `json:"completeness,omitempty"`
	// Extension carries the Section 4 class and verdict on the extension
	// routes ("ext_query", "ext_reduction").
	Extension *ExtensionInfo `json:"extension,omitempty"`
	// Scatter is the per-source breakdown of a scatter answer.
	Scatter *ScatterInfo `json:"scatter,omitempty"`
}

// AnswerPayload is an answer document: its node count and XML rendering.
type AnswerPayload struct {
	Nodes int    `json:"nodes"`
	XML   string `json:"xml"`
}

// LocalFacets are the Theorem 3.14 / Corollary 3.18 facets of a local
// answer; the three *V fields are the three-valued verdicts behind the
// sound booleans ("yes"/"no"/"unknown").
type LocalFacets struct {
	Fully              bool   `json:"fully"`
	FullyV             string `json:"fullyV"`
	CertainlyNonEmpty  bool   `json:"certainlyNonEmpty"`
	CertainlyNonEmptyV string `json:"certainlyNonEmptyV"`
	PossiblyNonEmpty   bool   `json:"possiblyNonEmpty"`
	PossiblyNonEmptyV  string `json:"possiblyNonEmptyV"`
	Lossy              bool   `json:"lossy"`
	BudgetExhausted    bool   `json:"budgetExhausted"`
}

// CompletionInfo is the Theorem 3.19 completion accounting.
type CompletionInfo struct {
	// LocalQueries is the number of local queries the completion executed
	// (attempted, when the answer degraded).
	LocalQueries int `json:"localQueries"`
}

// Completeness is the wire form of a certify.Certificate: what part of the
// answer the caller can provably trust as complete.
type Completeness struct {
	// Ratio is certifiedAtoms/atoms in [0,1]; Verdict is "full", "partial"
	// or "unknown" (see certify.Verdict).
	Ratio   float64 `json:"ratio"`
	Verdict string  `json:"verdict"`
	// Subquery is the certified sub-query in the textual query syntax, and
	// Paths its pattern-node paths; both empty when nothing was certified.
	Subquery string   `json:"subquery,omitempty"`
	Paths    []string `json:"paths,omitempty"`
	// Atoms counts the full query's pattern nodes, CertifiedAtoms those of
	// the certified sub-query.
	Atoms          int `json:"atoms"`
	CertifiedAtoms int `json:"certifiedAtoms"`
	// CertainNodes is the size of the certified sub-query's answer over the
	// certain fragment; Fingerprint its content fingerprint in hex.
	CertainNodes int    `json:"certainNodes"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	// CertainFacets / PossibleFacets count the Theorem 3.14 Cert/Poss match
	// facets the knowledge supports.
	CertainFacets  int `json:"certainFacets,omitempty"`
	PossibleFacets int `json:"possibleFacets,omitempty"`
	// Exhausted reports a certify-budget truncation (the certificate is
	// then a sound under-approximation).
	Exhausted bool `json:"exhausted,omitempty"`
	// PerSource maps source names to their own completeness ratios on
	// scatter-wide certificates.
	PerSource map[string]float64 `json:"perSource,omitempty"`
}

// ScatterInfo is the per-source breakdown of a scatter answer.
type ScatterInfo struct {
	// Shards is the cluster's shard count; CompleteShards/DegradedShards
	// the per-shard health classification of this scatter.
	Shards         int   `json:"shards"`
	CompleteShards []int `json:"completeShards"`
	DegradedShards []int `json:"degradedShards"`
	// Answers is one entry per registered source, sorted by source name.
	Answers []SourceEnvelope `json:"answers"`
}

// SourceEnvelope is one source's contribution to a scatter: a miniature
// answer envelope plus the shard that answered for it.
type SourceEnvelope struct {
	Source   string `json:"source"`
	Shard    int    `json:"shard"`
	Degraded bool   `json:"degraded"`
	// Error is a hard per-source failure; the sections below are then nil.
	Error        string          `json:"error,omitempty"`
	Cause        string          `json:"cause,omitempty"`
	Answer       *AnswerPayload  `json:"answer,omitempty"`
	Local        *LocalFacets    `json:"local,omitempty"`
	Completion   *CompletionInfo `json:"completion,omitempty"`
	Completeness *Completeness   `json:"completeness,omitempty"`
	// Extension carries the Section 4 class and verdict on scatter_ext
	// envelopes.
	Extension *ExtensionInfo `json:"extension,omitempty"`
}

// completenessOf projects a certificate into its wire form (nil-tolerant;
// a nil certificate certifies nothing).
func completenessOf(c *certify.Certificate) *Completeness {
	if c == nil {
		return &Completeness{Verdict: string(certify.Unknown)}
	}
	out := &Completeness{
		Ratio:          c.Ratio,
		Verdict:        string(c.Verdict),
		Subquery:       c.Subquery,
		Paths:          c.Paths,
		Atoms:          c.AtomsTotal,
		CertifiedAtoms: c.AtomsCertified,
		CertainNodes:   c.CertainNodes,
		CertainFacets:  c.CertainFacets,
		PossibleFacets: c.PossibleFacets,
		Exhausted:      c.Exhausted,
		PerSource:      c.PerSource,
	}
	if c.Fingerprint != 0 {
		out.Fingerprint = fmt.Sprintf("%016x", c.Fingerprint)
	}
	return out
}

// facetsOf projects a local answer's facets.
func facetsOf(la *webhouse.LocalAnswer) *LocalFacets {
	return &LocalFacets{
		Fully:              la.Fully,
		FullyV:             la.FullyV.String(),
		CertainlyNonEmpty:  la.CertainlyNonEmpty,
		CertainlyNonEmptyV: la.CertainlyNonEmptyV.String(),
		PossiblyNonEmpty:   la.PossiblyNonEmpty,
		PossiblyNonEmptyV:  la.PossiblyNonEmptyV.String(),
		Lossy:              la.Lossy,
		BudgetExhausted:    la.BudgetExhausted,
	}
}

// decision is the domain answer of /ext/reduction: the decided kind and its
// three-valued verdict.
type decision struct {
	kind    string
	verdict budget.Tri
}

// render is the one envelope renderer every execute ends in: it builds the
// route's envelope from the domain answer a (or passes err on), taking
// Degraded and Completeness from the answer itself, so route-level
// consistency holds by construction.
func (req *request) render(a any, err error) (*AnswerEnvelope, error) {
	if err != nil {
		return nil, err
	}
	env := &AnswerEnvelope{V: EnvelopeVersion, Route: req.route}
	switch a := a.(type) {
	case *shard.Scatter:
		env.Degraded = a.Degraded()
		// Only ps-query scatters carry a merged certificate (certify.Merge
		// never returns nil); an extended scatter has none to render.
		if a.Certificate != nil {
			env.Completeness = completenessOf(a.Certificate)
		}
		env.Scatter, err = scatterOf(req.query, a)
	case decision:
		env.Degraded = !a.verdict.Known()
		env.Extension = &ExtensionInfo{Class: a.kind, Tractable: true, Decision: a.verdict.String(), BudgetExhausted: env.Degraded}
	default:
		var se SourceEnvelope
		se, err = entry(req.query, a)
		env.Source, env.Degraded, env.Cause, env.Answer = req.source, se.Degraded, se.Cause, se.Answer
		env.Local, env.Completion, env.Completeness, env.Extension = se.Local, se.Completion, se.Completeness, se.Extension
	}
	if err != nil {
		return nil, err
	}
	return env, nil
}

// scatterOf renders a scatter's shard health and per-source answers, each
// through entry, the renderer of the single-source routes.
func scatterOf(q query.Query, s *shard.Scatter) (*ScatterInfo, error) {
	info := &ScatterInfo{Shards: s.Shards, CompleteShards: s.CompleteShards, DegradedShards: s.DegradedShards,
		Answers: make([]SourceEnvelope, 0, len(s.Answers))}
	for _, sa := range s.Answers {
		var se SourceEnvelope
		var err error
		switch {
		case sa.Err != nil:
			se = SourceEnvelope{Degraded: true, Error: sa.Err.Error(), Completeness: completenessOf(nil)}
		case sa.Complete != nil:
			se, err = entry(q, sa.Complete)
		case sa.Ext != nil:
			se, err = entry(q, sa.Ext)
		default:
			se, err = entry(q, sa.Local)
		}
		if err != nil {
			return nil, err
		}
		se.Source, se.Shard = sa.Source, sa.Shard
		info.Answers = append(info.Answers, se)
	}
	return info, nil
}

// entry renders one source's domain answer — an exploration's answer tree,
// or a local, complete or extended answer — into the envelope sections it
// contributes; Degraded and Completeness come from the answer itself.
func entry(q query.Query, a any) (SourceEnvelope, error) {
	var se SourceEnvelope
	var doc tree.Tree
	switch a := a.(type) {
	case *webhouse.ExactAnswer: // an exploration returns the source's exact answer
		doc, se.Completeness = a.Answer, completenessOf(a.Certificate)
	case outageAnswer: // ... or, the source down, the certified local one
		doc, se.Completeness = a.local.Exact, completenessOf(a.local.Certificate)
		se.Degraded, se.Cause = true, a.cause.Error()
	case *webhouse.LocalAnswer:
		doc, se.Degraded, se.Local = a.Exact, a.BudgetExhausted, facetsOf(a)
		se.Completeness = completenessOf(a.Certificate)
	case *webhouse.CompleteAnswer:
		doc, se.Degraded = a.Answer, a.Degraded
		se.Completion = &CompletionInfo{LocalQueries: a.LocalQueries}
		se.Completeness = completenessOf(a.Certificate)
		if a.Degraded && a.Cause != nil {
			se.Cause = a.Cause.Error()
		}
		if a.Degraded && a.Local != nil {
			se.Local = facetsOf(a.Local)
		}
	case *webhouse.ExtendedAnswer:
		doc, se.Degraded = a.Known, a.BudgetExhausted
		se.Extension = &ExtensionInfo{
			Class:           a.Class.String(),
			Tractable:       a.Class.Tractable(),
			ExactV:          a.ExactV.String(),
			Exact:           a.ExactV == budget.Yes,
			BudgetExhausted: a.BudgetExhausted,
		}
		se.Completeness = completenessOf(a.Certificate)
	default:
		return se, fmt.Errorf("serve: no envelope rendering for %T", a)
	}
	xml, err := xmlio.Marshal(doc)
	if err != nil {
		return se, err
	}
	se.Answer = &AnswerPayload{Nodes: doc.Size(), XML: xml}
	return se, nil
}
