package refine_test

import (
	"context"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/refine"
	"incxml/internal/store"
	"incxml/internal/workload"
)

// unmergeableAtom is r -> a1 a2 with σ(a1) = σ(a2) = a and no conditions:
// a1 and a2 are congruent, but their merged bound (exactly two) is none of
// the four multiplicities, so the atom keeps both symbols.
func unmergeableAtom() *itree.T {
	t := itree.New()
	ty := t.Type
	ty.Roots = []ctype.Symbol{"r"}
	ty.Sigma["r"] = ctype.LabelTarget("r")
	ty.Sigma["a1"] = ctype.LabelTarget("a")
	ty.Sigma["a2"] = ctype.LabelTarget("a")
	ty.Mu["r"] = ctype.Disj{{{Sym: "a1", Mult: dtd.One}, {Sym: "a2", Mult: dtd.One}}}
	return t
}

// checkCompact compacts in and checks that the result is well formed and
// that every enumerated member of either side is a member of the other.
// Enumeration runs under a step budget; a partial enumeration still yields
// genuine members only.
func checkCompact(t *testing.T, in *itree.T) {
	t.Helper()
	out := refine.Compact(in)
	if err := out.Validate(); err != nil {
		t.Fatalf("Compact result invalid: %v\nin:\n%s\nout:\n%s", err, in, out)
	}
	bounds := itree.IntBounds(0, 3, 2, 5, 400)
	for _, pair := range [][2]*itree.T{{in, out}, {out, in}} {
		trees, _ := pair[0].EnumerateBudgeted(bounds, budget.New(context.Background(), 20_000))
		for _, w := range trees {
			if !pair[1].Member(w) {
				t.Fatalf("rep changed: member of one side only:\n%s\nin:\n%s\nout:\n%s", w, in, out)
			}
		}
	}
}

// TestCompactUnmergeableAtom: an atom whose congruent items cannot be merged
// keeps its own symbols, and each of them keeps its σ, condition and µ.
func TestCompactUnmergeableAtom(t *testing.T) {
	in := unmergeableAtom()
	checkCompact(t, in)
	if got := refine.Compact(in).Size(); got != 5 {
		t.Errorf("Compact size = %d, want 5 (r, a1, a2 and the two items)", got)
	}
}

// FuzzCompact decodes an incomplete tree and checks that Compact neither
// panics nor changes rep. Rep-set equality under EqualRepSets is too strict
// here: its MaxRepeat bound makes a correct merge of a1? a2* into a* look
// like a change, so membership is checked in both directions instead.
func FuzzCompact(f *testing.F) {
	f.Add(store.EncodeIncomplete(unmergeableAtom()))
	f.Add(store.EncodeIncomplete(refine.Universal(workload.BlowupSigma)))
	world := workload.BlowupWorld()
	cur := refine.Universal(workload.BlowupSigma)
	for _, q := range workload.BlowupWorkload(2) {
		next, err := refine.Refine(cur, q, q.Eval(world), workload.BlowupSigma)
		if err != nil {
			f.Fatal(err)
		}
		cur = next
		f.Add(store.EncodeIncomplete(cur))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := store.DecodeIncomplete(data)
		if err != nil || in.Validate() != nil || in.Size() > 40 {
			return
		}
		checkCompact(t, in)
	})
}
