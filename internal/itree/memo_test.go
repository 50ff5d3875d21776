package itree

import (
	"fmt"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/rat"
)

// TestMemberCacheHitsAndInvalidation checks the memo of a marked tree: a
// stored Member verdict, and a stored answer value, are recalled on the same
// tree, a Clone (the only way to obtain a tree that may be mutated) starts
// without them and decides afresh, an unmarked tree never stores, and the
// memo stops storing at MemoLimit entries.
func TestMemberCacheHitsAndInvalidation(t *testing.T) {
	it := example22()
	d, ok := it.Witness()
	if !ok {
		t.Fatal("no witness")
	}
	key := d.String()

	// Unmarked: Remember is a no-op, so nothing can go stale.
	it.Remember(MemoFully, key, true)
	if _, ok := it.Recall(MemoFully, key); ok {
		t.Fatal("unmarked tree stored a verdict")
	}

	snap := it.MarkTrimmed()
	if !snap.Member(d) {
		t.Fatal("witness not a member")
	}
	snap.Remember(MemoFully, key, snap.Member(d))
	for i := 0; i < 5; i++ {
		if v, ok := snap.Recall(MemoFully, key); !ok || v != true {
			t.Fatalf("recall %d on the marked tree: got (%v, %v), want (true, true)", i, v, ok)
		}
	}
	// A different kind under the same key is a different verdict.
	if _, ok := snap.Recall(MemoCertainlyNonEmpty, key); ok {
		t.Fatal("verdict recalled under another kind")
	}
	// Values of any type are stored: an answer comes back as the same
	// pointer.
	ans := &struct{ n int }{7}
	snap.Remember(MemoLocal, key, ans)
	if v, ok := snap.Recall(MemoLocal, key); !ok || v != any(ans) {
		t.Fatalf("recall of a stored answer: got (%v, %v), want (%p, true)", v, ok, ans)
	}

	// Mutating a Clone must not observe the snapshot's stored verdict.
	mut := snap.Clone()
	if _, ok := mut.Recall(MemoFully, key); ok {
		t.Fatal("Clone copied the memo")
	}
	mut.Type.Cond["n"] = cond.Eq(rat.FromInt(99))
	if mut.Member(d) {
		t.Fatal("mutated clone still reports membership")
	}
	if v, ok := snap.Recall(MemoFully, key); !ok || v != true {
		t.Fatalf("snapshot verdict lost after mutating its clone: got (%v, %v)", v, ok)
	}

	// Bounded: once full, new keys are not stored; old ones still hit.
	for i := 0; i < MemoLimit; i++ {
		snap.Remember(MemoFully, fmt.Sprintf("k%d", i), true)
	}
	if _, ok := snap.Recall(MemoFully, "overflow"); ok {
		t.Fatal("unexpected verdict for an unseen key")
	}
	snap.Remember(MemoFully, "overflow", true)
	if _, ok := snap.Recall(MemoFully, "overflow"); ok {
		t.Fatalf("memo stored past MemoLimit=%d", MemoLimit)
	}
	if v, ok := snap.Recall(MemoFully, key); !ok || v != true {
		t.Fatal("earlier verdict lost once the memo filled")
	}
}

// TestDataTreeBuiltOncePerSnapshot: a marked tree builds its data tree once
// and hands every caller the same one; an unmarked tree, a Clone included,
// builds a fresh one per call.
func TestDataTreeBuiltOncePerSnapshot(t *testing.T) {
	it := example22()
	if a, b := it.DataTree(), it.DataTree(); a.Root == b.Root || !a.Equal(b) {
		t.Fatal("an unmarked tree must build an equal, fresh data tree per call")
	}
	snap := it.MarkTrimmed()
	first := snap.DataTree()
	if again := snap.DataTree(); again.Root != first.Root {
		t.Fatal("a marked tree rebuilt its data tree")
	}
	if c := snap.Clone().DataTree(); c.Root == first.Root || !c.Equal(first) {
		t.Fatal("a Clone must start without the snapshot's data tree")
	}
}
