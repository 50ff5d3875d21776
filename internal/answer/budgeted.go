package answer

import (
	"errors"

	"incxml/internal/budget"
	"incxml/internal/itree"
	"incxml/internal/query"
)

// The budgeted deciders are the three-valued forms of the Corollary 3.15 /
// 3.18 decision procedures, and the only implementation of each: a nil
// budget makes them exact, which is how the Boolean forms in answer.go call
// them. Each returns an exact Yes/No only when the full q(T) construction
// fit the budget, and Unknown with an error matching
// budget.ErrExhausted when it did not; a non-budget error (invalid query)
// also yields Unknown, with the genuine error. Exact results are memoized
// on a marked knowledge snapshot (cache.go) — a memo hit answers instantly
// without spending budget, and exhaustion is never stored (cachedDecision
// does not store errors), so a later retry with a larger budget can succeed.
//
// Each verdict rule exists once, as a function of the answer tree q(T)
// (fullyOf, certainlyOf, possiblyOf); the standalone deciders build q(T)
// for one verdict, Facets builds it once for all three.

// triDecision runs one memoized budgeted decision and folds the outcome into
// a verdict.
func triDecision(it *itree.T, q query.Query, kind uint8,
	compute func() (bool, error)) (budget.Tri, error) {
	v, err := cachedDecision(it, q, kind, compute)
	if err != nil {
		recordTri(kind, budget.Unknown, err)
		return budget.Unknown, err
	}
	recordTri(kind, budget.Of(v), nil)
	return budget.Of(v), nil
}

// ofAnswer lifts a verdict rule on q(T) to a decision on (it, q): it builds
// q(T) under the budget and applies the rule.
func ofAnswer(it *itree.T, q query.Query, bud *budget.B, rule func(*itree.T) bool) func() (bool, error) {
	return func() (bool, error) {
		ans, err := ApplyBudgeted(it, q, bud)
		if err != nil {
			return false, err
		}
		return rule(ans), nil
	}
}

// FullyAnswerableBudgeted is FullyAnswerable under a budget (nil = exact).
func FullyAnswerableBudgeted(it *itree.T, q query.Query, bud *budget.B) (budget.Tri, error) {
	return triDecision(it, q, itree.MemoFully, ofAnswer(it, q, bud, fullyOf))
}

// PossiblyNonEmptyBudgeted is PossiblyNonEmpty under a budget (nil = exact).
func PossiblyNonEmptyBudgeted(it *itree.T, q query.Query, bud *budget.B) (budget.Tri, error) {
	return triDecision(it, q, itree.MemoPossiblyNonEmpty, ofAnswer(it, q, bud, possiblyOf))
}

// CertainlyNonEmptyBudgeted is CertainlyNonEmpty under a budget (nil =
// exact).
func CertainlyNonEmptyBudgeted(it *itree.T, q query.Query, bud *budget.B) (budget.Tri, error) {
	return triDecision(it, q, itree.MemoCertainlyNonEmpty, ofAnswer(it, q, bud, certainlyOf))
}

// possiblyOf decides PossiblyNonEmpty from q(T): some answer is nonempty.
func possiblyOf(ans *itree.T) bool {
	return len(ans.Type.Roots) > 0 && !ans.EffectiveType().Empty()
}

// certainlyOf decides CertainlyNonEmpty from q(T): no world answers empty,
// and some answer is nonempty.
func certainlyOf(ans *itree.T) bool {
	return !ans.MayBeEmpty && possiblyOf(ans)
}

// Local is the local answer to one query on one incomplete tree: the
// Theorem 3.14 answer tree q(T) and the three verdicts derived from it.
type Local struct {
	// Possible is q(T); nil when the construction ran out of budget.
	Possible *itree.T
	// Fully is the Corollary 3.15 verdict, CertainlyNonEmpty and
	// PossiblyNonEmpty the Corollary 3.18 ones.
	Fully             budget.Tri
	CertainlyNonEmpty budget.Tri
	PossiblyNonEmpty  budget.Tri
}

// Facets builds q(T) once under the budget (nil = exact) and derives all
// three verdicts from it, reading and filling the decision memo of it. The
// verdicts equal those of the standalone deciders. When the construction
// fails — the budget ran out, or q is invalid — the error is returned with
// Possible nil: verdicts already memoized stand, and the others are
// Unknown.
func Facets(it *itree.T, q query.Query, bud *budget.B) (Local, error) {
	key := q.String()
	kinds := [3]uint8{itree.MemoFully, itree.MemoCertainlyNonEmpty, itree.MemoPossiblyNonEmpty}
	rules := [3]func(*itree.T) bool{fullyOf, certainlyOf, possiblyOf}
	var tri [3]budget.Tri
	var cached [3]bool
	for i, kind := range kinds {
		if v, ok := recall(it, kind, key); ok {
			tri[i], cached[i] = budget.Of(v), true
		}
	}
	ans, err := ApplyBudgeted(it, q, bud)
	for i, kind := range kinds {
		var cause error
		switch {
		case cached[i]:
		case err != nil:
			tri[i], cause = budget.Unknown, err
		default:
			v := rules[i](ans)
			it.Remember(kind, key, v)
			tri[i] = budget.Of(v)
		}
		recordTri(kind, tri[i], cause)
	}
	return Local{Possible: ans, Fully: tri[0], CertainlyNonEmpty: tri[1], PossiblyNonEmpty: tri[2]}, err
}

// IsExhausted reports whether err is a budget exhaustion (as opposed to a
// genuine solver error), for callers that branch on the Unknown cause.
func IsExhausted(err error) bool { return errors.Is(err, budget.ErrExhausted) }
