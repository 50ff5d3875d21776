package refine

import (
	"errors"
	"fmt"

	"incxml/internal/budget"
	"incxml/internal/heuristics"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// DefaultShrinkTo is the representation-size cap the lossy fallback of
// ObserveBudgeted shrinks to.
const DefaultShrinkTo = 128

// RefineBudgeted is one step of Algorithm Refine under a budget: the
// T_{q,A} construction is polynomial, and the intersection charges the
// budget as IntersectBudgeted. On exhaustion the step is abandoned with the
// budget error; see (*Refiner).ObserveBudgeted for the sanctioned lossy
// fallback. A nil budget makes the step exact.
func RefineBudgeted(t *itree.T, q query.Query, a tree.Tree, sigma []tree.Label, bud *budget.B) (*itree.T, error) {
	qa, err := FromQueryAnswer(q, a, sigma)
	if err != nil {
		return nil, err
	}
	return IntersectBudgeted(t, qa, bud)
}

// ObserveBudgeted folds one ps-query/answer pair into the representation
// under a budget; a nil budget always takes the exact step (intersection +
// compaction), which is what Observe does. When the budget is exhausted it
// falls back to the lossy-shrinking escape hatch of Proposition 3.13: the
// accumulated tree is shrunk to at most DefaultShrinkTo size units (merging
// same-label specializations, a rep-superset), the observation is folded
// into the shrunk tree exactly, and the result is shrunk again if compaction
// left it above the cap. The fallback keeps every step cheap and the
// invariant sound: from the first lossy step on, the maintained tree
// represents a superset of the true refinement, so emptiness of the
// maintained tree still soundly implies inconsistency, and any certain
// answer computed from it is still certain for... the superset — callers
// must treat post-lossy answers as approximations, which Lossy reports.
//
// The returned degraded flag is true when this step was folded through the
// fallback; Lossy reports whether any step was.
func (r *Refiner) ObserveBudgeted(q query.Query, a tree.Tree, bud *budget.B) (degraded bool, err error) {
	defer func() { recordObserve(degraded, err) }()
	qa, err := FromQueryAnswer(q, a, r.sigma)
	if err != nil {
		return false, err
	}
	next, err := IntersectBudgeted(r.cur, qa, bud)
	if errors.Is(err, budget.ErrExhausted) {
		// Lossy fallback (Proposition 3.13): shrink the accumulated tree to
		// the cap, then fold the observation exactly — cheap because the
		// shrunk tree is small and T_{q,A} is polynomial in |q| + |a|.
		next, err = Intersect(heuristics.LossyShrink(r.cur, DefaultShrinkTo), qa)
		degraded = true
	}
	if err != nil {
		// A known node came back with a different label or value: the
		// same inconsistency signal as an empty intersection.
		if errors.Is(err, ErrIncompatible) {
			err = fmt.Errorf("%w: %v", ErrInconsistent, err)
		}
		return false, err
	}
	next = Compact(next)
	if degraded && next.Size() > DefaultShrinkTo {
		next = heuristics.LossyShrink(next, DefaultShrinkTo)
	}
	// rep(true refinement) ⊆ rep(next) even after shrinking, so an empty
	// next still soundly signals inconsistency.
	if next.Empty() {
		return false, fmt.Errorf("%w (after %d observations)", ErrInconsistent, r.steps+1)
	}
	// Emptiness can also be induced only in combination with the source
	// type; check the reachable tree too when a type is known.
	if r.source != nil {
		if reach := WithTreeType(next, r.source); reach.Empty() {
			return false, fmt.Errorf("%w (answers conflict with the source type after %d observations)", ErrInconsistent, r.steps+1)
		}
	}
	r.cur = next
	r.reach.Store(nil)
	r.steps++
	r.lossy = r.lossy || degraded
	return degraded, nil
}

// Lossy reports whether any observation was folded through the lossy
// fallback: if true, the maintained tree over-approximates the true
// refinement (rep-superset) and exact-answer claims must be downgraded.
func (r *Refiner) Lossy() bool { return r.lossy }
