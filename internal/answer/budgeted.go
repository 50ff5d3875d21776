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
// also yields Unknown, with the genuine error. Exact results still flow
// through the shared decision cache — a cache hit answers instantly without
// spending budget, and exhaustion is never cached (cachedDecision does not
// cache errors), so a later retry with a larger budget can succeed.

// triDecision runs one cached budgeted decision and folds the outcome into
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

// FullyAnswerableBudgeted is FullyAnswerable under a budget (nil = exact).
func FullyAnswerableBudgeted(it *itree.T, q query.Query, bud *budget.B) (budget.Tri, error) {
	return triDecision(it, q, kindFully, func() (bool, error) {
		return fullyAnswerable(it, q, bud)
	})
}

// PossiblyNonEmptyBudgeted is PossiblyNonEmpty under a budget (nil = exact).
func PossiblyNonEmptyBudgeted(it *itree.T, q query.Query, bud *budget.B) (budget.Tri, error) {
	return triDecision(it, q, kindPossiblyNonEmpty, func() (bool, error) {
		ans, err := ApplyBudgeted(it, q, bud)
		if err != nil {
			return false, err
		}
		return len(ans.Type.Roots) > 0 && !ansEffective(ans).Empty(), nil
	})
}

// CertainlyNonEmptyBudgeted is CertainlyNonEmpty under a budget (nil =
// exact).
func CertainlyNonEmptyBudgeted(it *itree.T, q query.Query, bud *budget.B) (budget.Tri, error) {
	return triDecision(it, q, kindCertainlyNonEmpty, func() (bool, error) {
		ans, err := ApplyBudgeted(it, q, bud)
		if err != nil {
			return false, err
		}
		if ans.MayBeEmpty {
			return false, nil
		}
		return len(ans.Type.Roots) > 0 && !ansEffective(ans).Empty(), nil
	})
}

// IsExhausted reports whether err is a budget exhaustion (as opposed to a
// genuine solver error), for callers that branch on the Unknown cause.
func IsExhausted(err error) bool { return errors.Is(err, budget.ErrExhausted) }
