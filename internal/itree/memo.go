package itree

import (
	"sync"
	"sync/atomic"

	"incxml/internal/tree"
)

// MemoLimit bounds the memo of one marked tree, which is keyed by client
// input: the verdicts and the answers stored on it together. Once the memo
// holds MemoLimit values it stops storing; lookups keep working and misses
// are computed, so a flood of distinct queries costs time, never unbounded
// memory.
const MemoLimit = 4096

// The memo kinds, declared here once so that no two packages storing on the
// same tree collide. The first three hold the answer package's Corollary
// 3.15/3.18 verdicts (bool); the next three the webhouse's local and
// extended answers and its certified answers: q(data(T)) with its full
// certificate, stored only once the tree certifies q fully answerable.
//
// MemoScatter holds the shard cluster's merged scatter certificate, stored
// on the first source's snapshot. It depends on the other sources'
// snapshots too, so it widens Remember's contract: the value records the
// ID of every snapshot and the certificate it was merged from, and every
// Recall of it must check them against the answers at hand before using it.
const (
	MemoFully uint8 = iota
	MemoCertainlyNonEmpty
	MemoPossiblyNonEmpty
	MemoLocal
	MemoExtended
	MemoCertified
	MemoScatter
	memoKinds
)

// snapshotIDs numbers the trees marked by MarkTrimmed.
var snapshotIDs atomic.Uint64

// memo holds the values computed about one marked tree. Every reader
// between two folds shares the same marked tree, so a value stored here is
// shared by all of them and freed with the tree: no content fingerprint,
// global table, generation or eviction is needed.
//
// The values of every kind stored under one key share one map entry, so a
// query's key string is kept once per tree however many kinds are stored
// under it.
type memo struct {
	id uint64 // see ID

	mu sync.Mutex
	m  map[string][memoKinds]any
	n  int // values stored, bounded by MemoLimit

	// data is the tree's data tree, built once on first use (DataTree).
	dataOnce sync.Once
	data     tree.Tree
}

// ID identifies a tree marked by MarkTrimmed: no two marked trees of a
// process share one, so a value can record which snapshot it was computed
// from without keeping that snapshot alive. It is 0 on an unmarked tree.
func (it *T) ID() uint64 {
	if it.memo == nil {
		return 0
	}
	return it.memo.id
}

// Recall returns the value of the given kind stored under key by Remember.
// Only a tree marked by MarkTrimmed has a memo; on any other tree Recall
// always misses. Safe for concurrent use.
func (it *T) Recall(kind uint8, key string) (v any, ok bool) {
	if it.memo == nil {
		return nil, false
	}
	it.memo.mu.Lock()
	v = it.memo.m[key][kind]
	it.memo.mu.Unlock()
	return v, v != nil
}

// Remember stores v (not nil) of the given kind under key, so later Recalls
// on the same tree return it. It is a no-op on an unmarked tree, whose
// content may still change, and once the memo holds MemoLimit values. The
// value must be a function of the tree's content and the key, and is shared
// read-only by every later Recall. Safe for concurrent use.
func (it *T) Remember(kind uint8, key string, v any) {
	if it.memo == nil {
		return
	}
	it.memo.mu.Lock()
	defer it.memo.mu.Unlock()
	if it.memo.n >= MemoLimit {
		return
	}
	if it.memo.m == nil {
		it.memo.m = make(map[string][memoKinds]any)
	}
	vals := it.memo.m[key]
	if vals[kind] == nil {
		it.memo.n++
	}
	vals[kind] = v
	it.memo.m[key] = vals
}
