package itree

import "incxml/internal/obs"

// enumTotal counts rep-set enumerations, exact (nil budget) and budgeted
// alike, by outcome:
// `incxml_itree_enum_total{outcome}`. complete means the bounded rep-set was
// fully materialized (the result equals Enumerate's); exhausted means the
// budget cut the enumeration short and callers received a sound
// under-approximation.
var enumTotal = obs.Default().NewCounterVec(
	"incxml_itree_enum_total",
	"Rep-set enumerations by outcome (complete = exact, exhausted = anytime under-approximation).",
	"outcome")

// recordEnum tags one EnumerateBudgeted outcome and passes the error
// through, so return sites stay one-liners.
func recordEnum(err error) error {
	if err != nil {
		enumTotal.With("exhausted").Inc()
	} else {
		enumTotal.With("complete").Inc()
	}
	return err
}
