package answer

import (
	"sync/atomic"

	"incxml/internal/itree"
	"incxml/internal/query"
)

// The Boolean decision procedures of this package — full answerability and
// certain/possible non-emptiness — are pure in (T, q) and are re-evaluated
// by the webhouse on every routing decision. Their verdicts are memoized on
// the knowledge snapshot itself (itree.T.Remember), keyed by decision kind
// and q's canonical string: every reader between two folds shares that
// snapshot, and a fold replaces it, so an entry can never go stale. An
// unmarked tree has no memo and decides every time.

// decisionHits and decisionMisses count memo lookups, process-wide.
var decisionHits, decisionMisses atomic.Uint64

// CacheStats is a snapshot of the decision-memo counters.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// DecisionStats reports the decision-memo counters of every snapshot in
// the process.
func DecisionStats() CacheStats {
	return CacheStats{Hits: decisionHits.Load(), Misses: decisionMisses.Load()}
}

// recall returns the verdict of kind (one of the itree.Memo verdict kinds)
// stored on it under the canonical query key, counting the lookup.
func recall(it *itree.T, kind uint8, key string) (v, ok bool) {
	m, ok := it.Recall(kind, key)
	v, _ = m.(bool)
	if ok {
		decisionHits.Add(1)
	} else {
		decisionMisses.Add(1)
	}
	return v, ok
}

// cachedDecision memoizes compute under (it, q, kind). Errors are not
// stored: compute runs again on the next call.
func cachedDecision(it *itree.T, q query.Query, kind uint8, compute func() (bool, error)) (bool, error) {
	key := q.String()
	if v, ok := recall(it, kind, key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return false, err
	}
	it.Remember(kind, key, v)
	return v, nil
}
