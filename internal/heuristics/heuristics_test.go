package heuristics_test

import (
	"testing"

	"incxml/internal/cond"
	"incxml/internal/heuristics"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/refine"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

func v(n int64) rat.Rat { return rat.FromInt(n) }

var sigmaRAB = []tree.Label{"root", "a", "b"}

// blowupQuery is Example 3.2's q_i.
func blowupQuery(i int64) query.Query {
	return query.Query{Root: query.N("root", cond.True(),
		query.N("a", cond.EqInt(i)),
		query.N("b", cond.EqInt(i)))}
}

func TestAdditionalQueries(t *testing.T) {
	var workload []query.Query
	for i := int64(1); i <= 3; i++ {
		workload = append(workload, blowupQuery(i))
	}
	extra := heuristics.AdditionalQueries(workload)
	// Example 3.3: the needed additional queries are root, root/a, root/b —
	// deduplicated across the three workload queries.
	if len(extra) != 3 {
		t.Fatalf("AdditionalQueries returned %d queries, want 3:\n%v", len(extra), extra)
	}
	// They are condition-free paths, parents first.
	if extra[0].Size() != 1 || extra[0].Root.Label != "root" {
		t.Errorf("first additional query should be the root path: %s", extra[0])
	}
	for _, q := range extra {
		if !q.IsLinear() {
			t.Errorf("additional query not linear: %s", q)
		}
		q.Walk(func(n *query.Node) {
			if !n.Cond.IsTrue() {
				t.Errorf("additional query carries a condition: %s", q)
			}
		})
	}
}

func TestProposition313KeepsTreePolynomial(t *testing.T) {
	// Example 3.2 world: root with a few a and b children.
	world := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("a1", "a", v(10)),
		tree.NewID("b1", "b", v(20)))}

	sizesPlain := make([]int, 0, 6)
	sizesAided := make([]int, 0, 6)

	// Plain chain: only the workload queries.
	plain := refine.NewRefiner(sigmaRAB, nil)
	for i := int64(1); i <= 6; i++ {
		if _, err := plain.ObserveOn(world, blowupQuery(i)); err != nil {
			t.Fatal(err)
		}
		sizesPlain = append(sizesPlain, plain.Tree().Size())
	}
	// Aided chain: additional queries first (Proposition 3.13), then the
	// workload.
	var seq []query.Query
	for i := int64(1); i <= 6; i++ {
		seq = append(seq, blowupQuery(i))
	}
	aided := refine.NewRefiner(sigmaRAB, nil)
	for _, q := range heuristics.AdditionalQueries(seq) {
		if _, err := aided.ObserveOn(world, q); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 6; i++ {
		if _, err := aided.ObserveOn(world, blowupQuery(i)); err != nil {
			t.Fatal(err)
		}
		sizesAided = append(sizesAided, aided.Tree().Size())
	}
	// The aided chain's growth must be bounded by a constant per step;
	// the plain chain grows much faster on this workload.
	aidedGrowth := sizesAided[len(sizesAided)-1] - sizesAided[0]
	plainGrowth := sizesPlain[len(sizesPlain)-1] - sizesPlain[0]
	if aidedGrowth*4 > plainGrowth {
		t.Errorf("additional queries did not curb growth: plain %v, aided %v", sizesPlain, sizesAided)
	}
	// Both chains must still accept the true world.
	if !plain.Tree().Member(world) || !aided.Tree().Member(world) {
		t.Error("true world rejected")
	}

	// E16 shape gate: on the E16 benchmark's chains (the additional
	// queries of an n-query workload, then the workload) the tree ends at
	// the same size for n = 2, 4 and 6.
	sizes := map[int]int{}
	for _, n := range []int{2, 4, 6} {
		qs := workload.BlowupWorkload(n)
		r := refine.NewRefiner(workload.BlowupSigma, nil)
		for _, q := range append(heuristics.AdditionalQueries(qs), qs...) {
			if _, err := r.ObserveOn(workload.BlowupWorld(), q); err != nil {
				t.Fatal(err)
			}
		}
		sizes[n] = r.Tree().Size()
	}
	if sizes[2] != sizes[4] || sizes[4] != sizes[6] {
		t.Errorf("E16 chains: sizes %v, want one constant size", sizes)
	}
}

func TestLossyShrinkSupersetAndSmaller(t *testing.T) {
	// Build a sizeable incomplete tree via the blow-up workload.
	world := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("a1", "a", v(10)))}
	r := refine.NewRefiner(sigmaRAB, nil)
	for i := int64(1); i <= 4; i++ {
		if _, err := r.ObserveOn(world, blowupQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	orig := r.Tree()
	target := orig.Size() / 2
	shrunk := heuristics.LossyShrink(orig, target)
	if shrunk.Size() > orig.Size() {
		t.Errorf("LossyShrink grew the tree: %d -> %d", orig.Size(), shrunk.Size())
	}
	if shrunk.Size() >= orig.Size() && orig.Size() > target {
		t.Errorf("LossyShrink did not shrink: %d (target %d)", shrunk.Size(), target)
	}
	// Superset property: every member of the original remains a member.
	// Sample candidate worlds by decorating the true world.
	var candidates []tree.Tree
	candidates = append(candidates, world)
	for _, av := range []int64{0, 5, 10, 20} {
		for _, bv := range []int64{0, 5, 10, 20} {
			w := world.Clone()
			w.Root.Children = append(w.Root.Children,
				tree.New("a", v(av)), tree.New("b", v(bv)))
			candidates = append(candidates, w)
		}
	}
	checked := 0
	for _, m := range candidates {
		if !orig.Member(m) {
			continue
		}
		checked++
		if !shrunk.Member(m) {
			t.Fatalf("member lost by LossyShrink:\n%s", m)
		}
	}
	if checked == 0 {
		t.Fatal("no members to check")
	}
	if !shrunk.Member(world) {
		t.Error("true world lost by LossyShrink")
	}
}

func TestLossyShrinkIdempotentWhenSmall(t *testing.T) {
	u := refine.Universal(sigmaRAB)
	shrunk := heuristics.LossyShrink(u, u.Size())
	if shrunk.Size() != u.Size() {
		t.Errorf("LossyShrink changed an already-small tree: %d -> %d", u.Size(), shrunk.Size())
	}
	// Shrinking below the minimum merges everything mergeable, then stops.
	tiny := heuristics.LossyShrink(u, 1)
	if tiny.Size() == 0 {
		t.Error("LossyShrink produced an empty representation")
	}
}
