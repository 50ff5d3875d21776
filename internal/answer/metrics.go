package answer

import (
	"errors"

	"incxml/internal/budget"
	"incxml/internal/itree"
	"incxml/internal/obs"
)

// triTotal counts every decider verdict, exact (nil budget) and budgeted
// alike:
// `incxml_answer_tri_total{proc,verdict,cause}`. proc names the decision
// procedure (fully / certainly_nonempty / possibly_nonempty), verdict is the
// three-valued answer, and cause explains an unknown verdict (steps,
// deadline, or error for a genuine solver failure; none when the verdict is
// exact). A rising unknown/steps series is the direct signal that requests
// are hitting the Theorem 3.10 tractability wall under the configured
// -budget.
var triTotal = obs.Default().NewCounterVec(
	"incxml_answer_tri_total",
	"Answerability/non-emptiness verdicts by procedure, verdict, and unknown-cause.",
	"proc", "verdict", "cause")

// The decision memo's counters are func-backed views over the atomics
// DecisionStats reads, under the `incxml_cache_*` families.
func init() {
	d := obs.Default()
	d.NewCounterVec("incxml_cache_hits_total",
		"Decision lookups answered by a verdict memoized on the knowledge snapshot, by cache.", "cache").
		Func(decisionHits.Load, "decision")
	d.NewCounterVec("incxml_cache_misses_total",
		"Decision lookups that had to compute the verdict, by cache.", "cache").
		Func(decisionMisses.Load, "decision")
}

// procName renders a decision kind for the proc metric label.
func procName(kind uint8) string {
	switch kind {
	case itree.MemoFully:
		return "fully"
	case itree.MemoCertainlyNonEmpty:
		return "certainly_nonempty"
	default:
		return "possibly_nonempty"
	}
}

// recordTri folds one decider outcome into triTotal.
func recordTri(kind uint8, v budget.Tri, err error) {
	cause := "none"
	if err != nil {
		var be *budget.Error
		if errors.As(err, &be) {
			cause = be.Cause.String()
		} else {
			cause = "error"
		}
	}
	triTotal.With(procName(kind), v.String(), cause).Inc()
}
