package refine

import (
	"errors"

	"incxml/internal/obs"
)

// observeTotal counts observation steps, exact (nil budget) and budgeted
// alike, by outcome:
// `incxml_refine_observe_total{outcome}`. exact = the full intersection fit
// the budget; lossy = the Proposition 3.13 shrinking fallback fired and the
// maintained tree became a rep-superset; inconsistent = the observation
// contradicted the accumulated knowledge; error = a genuine solver failure;
// redundant = the observation was not folded at all, because the knowledge
// already certified its answer (CountRedundant).
var observeTotal = obs.Default().NewCounterVec(
	"incxml_refine_observe_total",
	"Refinement observations by outcome (exact, lossy, inconsistent, error; redundant = not folded, the knowledge already certified the answer by Corollary 3.15).",
	"outcome")

// recordObserve folds one ObserveBudgeted outcome into observeTotal.
func recordObserve(degradedNow bool, err error) {
	switch {
	case err == nil && !degradedNow:
		observeTotal.With("exact").Inc()
	case err == nil:
		observeTotal.With("lossy").Inc()
	case errors.Is(err, ErrInconsistent):
		observeTotal.With("inconsistent").Inc()
	default:
		observeTotal.With("error").Inc()
	}
}

// CountRedundant counts an observation its caller did not fold because it
// could not change rep(T): the query was certified fully answerable and
// the answer was the one the data tree already gives (Corollary 3.15).
func CountRedundant() { observeTotal.With("redundant").Inc() }
