package webhouse

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"incxml/internal/answer"
	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/intern"
	"incxml/internal/itree"
	"incxml/internal/obs"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// extVerdicts counts extended-answer exactness verdicts by query class —
// the serving-side view of the Section 4 tractability boundary. Process-
// global (obs.Default()) like the other decider-verdict families.
var extVerdicts = obs.Default().NewCounterVec(
	"incxml_webhouse_ext_verdicts_total",
	"Extended-query exactness verdicts by Section 4 query class.",
	"class", "verdict")

// ExtendedAnswer is the result of answering a Section 4 extended query
// (branching, optional subtrees, negation, joins, path expressions) against
// the locally known data.
//
// The paper's conclusion poses this coupling as future work: simple
// ps-queries feed the warehouse, while a more powerful language is asked
// locally. Because extended queries are not a strong representation system
// (Section 4), the webhouse cannot represent all their possible answers;
// instead it reports the answer over the known data together with a
// three-valued exactness verdict that is never wrong when definite.
type ExtendedAnswer struct {
	// Known is the extended query's answer on the data tree T_d.
	Known tree.Tree
	// Class is the Section 4 fragment the query falls into (its most
	// expensive feature).
	Class extquery.Class
	// ExactV is the three-valued exactness verdict for Known against the
	// answer on the full document:
	//
	//   - Yes when a covering ps-query is fully answerable from the
	//     warehouse (Corollary 3.15) — or, for path-expression queries with
	//     no ps-cover, when the whole document is certified known, so
	//     rep(T) is the singleton {T_d} and any evaluation is exact;
	//   - Unknown otherwise. In particular, queries in the intractable
	//     classes (negation, joins — Theorems 4.1/4.5/4.7) always report
	//     Unknown: the decider refuses to guess where Section 4 says the
	//     question is co-NP-hard or undecidable, so a definite verdict is
	//     never wrong by construction.
	//
	// No is never reported: failing to certify exactness does not prove
	// the answer inexact.
	ExactV budget.Tri
	// Certificate is the Corollary 3.15 completeness certificate over the
	// covering ps-query when one exists and the class is tractable; nil
	// otherwise.
	Certificate *certify.Certificate
	// BudgetExhausted reports that the step budget ran out mid-evaluation:
	// Known may be empty and ExactV is Unknown. Such answers are degraded,
	// never cached, and never claimed exact.
	BudgetExhausted bool
}

// extKey renders an extended query to a canonical cache-key string. Unlike
// ps-queries, extended queries have no parseable String form; this encoding
// is deterministic in the query value (children in pattern order) and
// injective over the features that affect the answer.
func extKey(q extquery.Query) string {
	var b strings.Builder
	b.WriteString("ext:")
	var rec func(n *extquery.Node)
	rec = func(n *extquery.Node) {
		b.WriteByte('(')
		b.WriteString(string(n.Label))
		if n.Path != nil {
			fmt.Fprintf(&b, "~%s", n.Path.String())
		}
		if !n.Cond.IsTrue() {
			fmt.Fprintf(&b, "{%s}", n.Cond)
		}
		if n.Var != "" {
			fmt.Fprintf(&b, "$%s", n.Var)
		}
		if n.Optional {
			b.WriteByte('?')
		}
		if n.Negated {
			b.WriteByte('^')
		}
		if n.Extract {
			b.WriteByte('!')
		}
		for _, c := range n.Children {
			rec(c)
		}
		b.WriteByte(')')
	}
	if q.Root != nil {
		rec(q.Root)
	}
	for _, d := range q.Diseq {
		fmt.Fprintf(&b, "[%s!=%s]", d[0], d[1])
	}
	return b.String()
}

// storeExt is storeLocal's counterpart for extended answers.
func (r *Repository) storeExt(gen uint64, key intern.ID, ea *ExtendedAnswer) {
	r.cacheMu.Lock()
	if r.gen.Load() == gen {
		r.ext[key] = ea
	}
	r.cacheMu.Unlock()
}

// AnswerExtended evaluates an extended query against the repository's data
// tree under the webhouse's cooperative budget and reports a three-valued
// exactness verdict. Results are cached per source until the knowledge
// changes; budget-degraded answers are never cached. Deadline exhaustion
// surfaces as an error (the serving layer maps it to a timeout); step
// exhaustion degrades soundly to an Unknown-verdict answer.
func (wh *Webhouse) AnswerExtended(ctx context.Context, source string, q extquery.Query) (*ExtendedAnswer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := wh.Repo(source)
	if err != nil {
		return nil, err
	}
	key := intern.String(extKey(q))
	r.cacheMu.Lock()
	ea, ok := r.ext[key]
	r.cacheMu.Unlock()
	if ok {
		wh.cacheHits.Add(1)
		cp := *ea
		return &cp, nil
	}
	wh.cacheMisses.Add(1)
	gen, know := r.snapshot()
	td := know.DataTree()

	bud := wh.newBudget(ctx)
	endStage := obs.FromContext(ctx).Stage("extended")
	defer func() {
		used := bud.Used()
		stepsUsed.Observe(used)
		endStage(used)
	}()

	out := &ExtendedAnswer{Class: q.Classify(), ExactV: budget.Unknown}
	out.Known, err = q.AnswerBudgeted(td, bud)
	if err != nil {
		if !errors.Is(err, budget.ErrExhausted) {
			return nil, err
		}
		wh.budgetExhaustions.Add(1)
		if bud.ExhaustedCause() == budget.CauseDeadline {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, bud.Err()
		}
		// Step exhaustion: degrade soundly. The partial valuation set was
		// discarded (it would under-report); serve an explicitly degraded
		// empty answer with an Unknown verdict, uncached.
		out.BudgetExhausted = true
		extVerdicts.With(out.Class.String(), out.ExactV.String()).Inc()
		return out, nil
	}

	if out.Class.Tractable() {
		if err := wh.certifyExtended(ctx, know, q, out, bud); err != nil {
			return nil, err
		}
	}
	extVerdicts.With(out.Class.String(), out.ExactV.String()).Inc()
	if !out.BudgetExhausted {
		r.storeExt(gen, key, out)
	}
	cp := *out
	return &cp, nil
}

// certifyExtended resolves the exactness verdict for a tractable-class
// query: through the covering ps-query when one exists, else — for
// path-expression and optional-subtree queries — through the whole-document
// cover (a root-bar query): if every completion agrees on the full
// document, rep(T) = {T_d} and any evaluation over T_d is exact.
func (wh *Webhouse) certifyExtended(ctx context.Context, know *itree.T, q extquery.Query, out *ExtendedAnswer, bud *budget.B) error {
	cover, monotone := coveringPSQuery(q)
	if !monotone || cover.Root == nil {
		td := know.DataTree()
		if td.Root == nil {
			return nil
		}
		cover = query.Query{Root: query.Bar(td.Root.Label, cond.True())}
	}
	fully, err := answer.FullyAnswerableBudgeted(know, cover, bud)
	if err != nil {
		if !errors.Is(err, budget.ErrExhausted) {
			return err
		}
		wh.budgetExhaustions.Add(1)
		if bud.ExhaustedCause() == budget.CauseDeadline {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return bud.Err()
		}
		out.BudgetExhausted = true
		return nil
	}
	if fully == budget.Yes {
		out.ExactV = budget.Yes
		// Certificate under its own bounded budget, as for local answers:
		// exhausting the request budget must not erase the certificate.
		out.Certificate = certify.Compute(know, cover,
			budget.New(ctx, certifySteps(wh.effectiveSteps(ctx))))
	}
	return nil
}

// coveringPSQuery derives a ps-query whose answer contains every node any
// valuation of the extended query can touch, when one exists. It returns
// monotone=false when the extended query uses negation, optional subtrees,
// or path expressions (features whose answers are not determined by a
// ps-prefix), in which case no exactness claim is made.
func coveringPSQuery(q extquery.Query) (query.Query, bool) {
	if q.Root == nil {
		return query.Query{}, false
	}
	var conv func(n *extquery.Node) (*query.Node, bool)
	conv = func(n *extquery.Node) (*query.Node, bool) {
		if n.Negated || n.Optional || n.Path != nil {
			return nil, false
		}
		out := &query.Node{Label: n.Label, Extract: n.Extract}
		// Variables join across branches; the covering query drops the join
		// (conditions only), which over-approximates the touched nodes.
		out.Cond = n.Cond
		seen := map[tree.Label]*query.Node{}
		for _, c := range n.Children {
			cc, ok := conv(c)
			if !ok {
				return nil, false
			}
			if prev, dup := seen[cc.Label]; dup {
				// Branching: merge same-label siblings by weakening their
				// conditions to the disjunction and merging their subtrees;
				// if the subtrees differ structurally, give up.
				if len(prev.Children) != 0 || len(cc.Children) != 0 {
					return nil, false
				}
				prev.Cond = prev.Cond.Or(cc.Cond)
				continue
			}
			seen[cc.Label] = cc
			out.Children = append(out.Children, cc)
		}
		return out, true
	}
	root, ok := conv(q.Root)
	if !ok {
		return query.Query{}, false
	}
	out := query.Query{Root: root}
	if err := out.Validate(); err != nil {
		return query.Query{}, false
	}
	return out, true
}
