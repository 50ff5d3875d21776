package answer

import (
	"encoding/binary"

	"incxml/internal/engine"
	"incxml/internal/intern"
	"incxml/internal/itree"
	"incxml/internal/query"
)

// The Boolean decision procedures of this package — full answerability and
// certain/possible non-emptiness — are pure in (T, q) and are re-evaluated
// by the webhouse on every routing decision. Their results are memoized in
// a bounded shared cache keyed by T's content fingerprint and q's canonical
// string; mutating the knowledge changes its fingerprint, so entries can
// never go stale.

var decisionCache = engine.NewCache(1 << 15)

// CacheStats reports the decision-procedure cache's counters.
func CacheStats() engine.CacheStats { return decisionCache.Stats() }

// ResetCache drops the decision-procedure cache.
func ResetCache() { decisionCache.Reset() }

// decisionKey keys a memoized decision: the knowledge's content fingerprint,
// the interned ID of the query's canonical string — an 8-byte stable handle
// instead of the string itself, so key hashing and comparison are
// fixed-width — and the decision kind.
type decisionKey struct {
	t    itree.FP
	q    intern.ID
	kind uint8
}

const (
	kindFully uint8 = iota
	kindCertainlyNonEmpty
	kindPossiblyNonEmpty
)

// newDecisionKey keys the decisions about (it, q); the caller sets kind.
func newDecisionKey(it *itree.T, q query.Query) decisionKey {
	return decisionKey{t: it.Fingerprint(), q: intern.String(q.String())}
}

func (k decisionKey) hash() uint64 {
	return binary.LittleEndian.Uint64(k.t[:8]) ^ uint64(k.kind)
}

// lookupDecision returns the memoized verdict under k, if any.
func lookupDecision(k decisionKey) (v, ok bool) {
	got, ok := decisionCache.Get(k.hash(), k)
	if !ok {
		return false, false
	}
	return got.(bool), true
}

// storeDecision memoizes verdict v under k.
func storeDecision(k decisionKey, v bool) { decisionCache.Put(k.hash(), k, v) }

// cachedDecision memoizes compute under (it, q, kind). Errors are not
// cached: compute runs again on the next call.
func cachedDecision(it *itree.T, q query.Query, kind uint8, compute func() (bool, error)) (bool, error) {
	key := newDecisionKey(it, q)
	key.kind = kind
	if v, ok := lookupDecision(key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return false, err
	}
	storeDecision(key, v)
	return v, nil
}
