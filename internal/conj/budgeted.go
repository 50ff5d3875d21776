package conj

import (
	"context"

	"incxml/internal/budget"
	"incxml/internal/ctype"
)

// EmptyBudgeted is the three-valued, budget-guarded form of Empty: it
// decides rep(T) = ∅ exactly when the pruned certificate search fits the
// budget, and reports budget.Unknown (with the exhaustion error) when it
// does not. It is never wrong when it answers:
//
//   - budget.No means a satisfiable certificate was found — a positive
//     witness, exact regardless of how much budget remains;
//   - budget.Yes means the search exhausted every assignment that could
//     make a certificate satisfiable;
//   - budget.Unknown means the budget (steps or deadline) ran out before
//     either of the above; the returned error matches budget.ErrExhausted.
//
// The budget is charged one step per digit assignment, interned symbol set,
// join tuple, and productivity evaluation — memo hits are free, which is
// what moves the budgeted-unknown crossover on the blowup family (E21). A
// nil budget makes the search exact and equivalent to Empty; the context
// still applies, so a cancelled one yields Unknown with budget.CauseDeadline.
func (t *T) EmptyBudgeted(ctx context.Context, b *budget.B) (budget.Tri, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	v, err := t.emptyScan(ctx, b)
	return recordEmptyTri(v, err)
}

// emptySequentialBudgeted is the mixed-radix certificate scan: the
// reference procedure behind EmptySequential (nil budget) and the fallback
// emptyScan takes when a witness must be confirmed certificate by
// certificate.
func (t *T) emptySequentialBudgeted(ctx context.Context, syms []ctype.Symbol, counts []int, b *budget.B) (budget.Tri, error) {
	idx := make([]int, len(counts))
	for {
		if err := b.Charge(1); err != nil {
			return budget.Unknown, err
		}
		pi, err := t.buildPi(syms, idx, b)
		if err != nil {
			return budget.Unknown, err
		}
		if pi != nil && !pi.Empty() {
			return budget.No, nil
		}
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < counts[i] {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			return triFromScan(ctx, b)
		}
	}
}

// triFromScan converts the end state of a witnessless scan into a verdict:
// Yes only when neither the budget nor the context cut the scan short.
func triFromScan(ctx context.Context, b *budget.B) (budget.Tri, error) {
	if err := b.Err(); err != nil {
		return budget.Unknown, err
	}
	if err := ctx.Err(); err != nil {
		return budget.Unknown, &budget.Error{Cause: budget.CauseDeadline, Ctx: err}
	}
	return budget.Yes, nil
}
