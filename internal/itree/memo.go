package itree

import "sync"

// MemoLimit bounds every memo keyed by client input: the verdicts stored on
// one marked tree, and each per-source answer cache of the webhouse. Once a
// memo holds MemoLimit entries it stops storing; lookups keep working and
// misses are computed, so a flood of distinct queries costs time, never
// unbounded memory.
const MemoLimit = 4096

// memo holds the verdicts decided about one marked tree. Every reader
// between two folds shares the same marked tree, so a verdict stored here
// is shared by all of them and freed with the tree: no content fingerprint,
// global table or eviction is needed.
type memo struct {
	mu sync.Mutex
	m  map[memoKey]bool
}

type memoKey struct {
	kind uint8
	key  string
}

// Recall returns the verdict of the given kind stored under key by
// Remember. Only a tree marked by MarkTrimmed has a memo; on any other tree
// Recall always misses. Safe for concurrent use.
func (it *T) Recall(kind uint8, key string) (v, ok bool) {
	if it.memo == nil {
		return false, false
	}
	it.memo.mu.Lock()
	v, ok = it.memo.m[memoKey{kind, key}]
	it.memo.mu.Unlock()
	return v, ok
}

// Remember stores verdict v of the given kind under key, so later Recalls
// on the same tree return it. It is a no-op on an unmarked tree, whose
// content may still change, and once the memo holds MemoLimit entries. The
// verdict must be a function of the tree's content and the key. Safe for
// concurrent use.
func (it *T) Remember(kind uint8, key string, v bool) {
	if it.memo == nil {
		return
	}
	it.memo.mu.Lock()
	if it.memo.m == nil {
		it.memo.m = make(map[memoKey]bool)
	}
	if len(it.memo.m) < MemoLimit {
		it.memo.m[memoKey{kind, key}] = v
	}
	it.memo.mu.Unlock()
}
