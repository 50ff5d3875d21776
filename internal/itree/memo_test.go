package itree

import (
	"fmt"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/rat"
)

// TestMemberCacheHitsAndInvalidation checks the verdict memo of a marked
// tree: a stored Member verdict is recalled on the same tree, a Clone (the
// only way to obtain a tree that may be mutated) starts without it and
// decides afresh, an unmarked tree never stores, and the memo stops storing
// at MemoLimit entries.
func TestMemberCacheHitsAndInvalidation(t *testing.T) {
	it := example22()
	d, ok := it.Witness()
	if !ok {
		t.Fatal("no witness")
	}
	key := d.String()

	// Unmarked: Remember is a no-op, so nothing can go stale.
	it.Remember(0, key, true)
	if _, ok := it.Recall(0, key); ok {
		t.Fatal("unmarked tree stored a verdict")
	}

	snap := it.MarkTrimmed()
	if !snap.Member(d) {
		t.Fatal("witness not a member")
	}
	snap.Remember(0, key, snap.Member(d))
	for i := 0; i < 5; i++ {
		if v, ok := snap.Recall(0, key); !ok || !v {
			t.Fatalf("recall %d on the marked tree: got (%v, %v), want (true, true)", i, v, ok)
		}
	}
	// A different kind under the same key is a different verdict.
	if _, ok := snap.Recall(1, key); ok {
		t.Fatal("verdict recalled under another kind")
	}

	// Mutating a Clone must not observe the snapshot's stored verdict.
	mut := snap.Clone()
	if _, ok := mut.Recall(0, key); ok {
		t.Fatal("Clone copied the memo")
	}
	mut.Type.Cond["n"] = cond.Eq(rat.FromInt(99))
	if mut.Member(d) {
		t.Fatal("mutated clone still reports membership")
	}
	if v, ok := snap.Recall(0, key); !ok || !v {
		t.Fatalf("snapshot verdict lost after mutating its clone: got (%v, %v)", v, ok)
	}

	// Bounded: once full, new keys are not stored; old ones still hit.
	for i := 0; i < MemoLimit; i++ {
		snap.Remember(0, fmt.Sprintf("k%d", i), true)
	}
	if _, ok := snap.Recall(0, "overflow"); ok {
		t.Fatal("unexpected verdict for an unseen key")
	}
	snap.Remember(0, "overflow", true)
	if _, ok := snap.Recall(0, "overflow"); ok {
		t.Fatalf("memo stored past MemoLimit=%d", MemoLimit)
	}
	if v, ok := snap.Recall(0, key); !ok || !v {
		t.Fatal("earlier verdict lost once the memo filled")
	}
}
