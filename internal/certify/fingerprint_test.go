package certify_test

import (
	"context"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/rat"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// TestFingerprintPureFunctionOfTree: the certificate fingerprint must be a
// pure function of the answer tree's value — equal trees built in different
// sibling orders hash identically, different trees hash differently, and
// the hash is exactly what FingerprintOf recomputes from the tree alone
// (ROADMAP item 6: no dependence on process or cache state).
func TestFingerprintPureFunctionOfTree(t *testing.T) {
	a := tree.Tree{Root: tree.NewID("r", "root", rat.Zero,
		tree.NewID("x", "a", rat.FromInt(1)),
		tree.NewID("y", "b", rat.FromInt(2)))}
	b := tree.Tree{Root: tree.NewID("r", "root", rat.Zero,
		tree.NewID("y", "b", rat.FromInt(2)),
		tree.NewID("x", "a", rat.FromInt(1)))}
	if !a.Equal(b) {
		t.Fatal("fixture trees should be equal up to sibling order")
	}
	if certify.FingerprintOf(a) != certify.FingerprintOf(b) {
		t.Fatalf("sibling order changed the fingerprint: %x vs %x",
			certify.FingerprintOf(a), certify.FingerprintOf(b))
	}
	c := tree.Tree{Root: tree.NewID("r", "root", rat.Zero,
		tree.NewID("x", "a", rat.FromInt(3)))}
	if certify.FingerprintOf(a) == certify.FingerprintOf(c) {
		t.Fatal("different trees produced the same fingerprint")
	}
	if certify.FingerprintOf(tree.Empty()) != 0 {
		t.Fatal("empty tree must fingerprint to 0")
	}
}

// TestFingerprintRecomputable: two certificate computations over the same
// knowledge report the same fingerprint, and it is exactly FingerprintOf
// the certified answer, recomputed from the knowledge alone — no process
// state such as an arrival-order identifier enters it, so it cannot drift
// across a warm restart.
func TestFingerprintRecomputable(t *testing.T) {
	know, _ := warmCatalog(t)
	q := workload.Query1(200)
	bud := func() *budget.B { return budget.New(context.Background(), 1<<20) }

	first := certify.Compute(know, q, bud())
	second := certify.Compute(know, q, bud())
	if first.Fingerprint != second.Fingerprint {
		t.Fatalf("recomputation changed the fingerprint: %016x vs %016x",
			first.Fingerprint, second.Fingerprint)
	}
	want := certify.FingerprintOf(certify.Subquery(q, first.Paths).Eval(know.DataTree()))
	if first.Fingerprint != want {
		t.Fatalf("fingerprint %016x is not FingerprintOf(certified answer) %016x",
			first.Fingerprint, want)
	}
}
