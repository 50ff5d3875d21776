package conj

import (
	"errors"
	"maps"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/refine"
	"incxml/internal/tree"
)

func v(n int64) rat.Rat { return rat.FromInt(n) }

var sigmaRAB = []tree.Label{"root", "a", "b"}

// blowupQuery builds the Example 3.2 query: root with children a = i and
// b = i.
func blowupQuery(i int64) query.Query {
	return query.Query{Root: query.N("root", cond.True(),
		query.N("a", cond.EqInt(i)),
		query.N("b", cond.EqInt(i)))}
}

func TestFromITreeRoundBehavior(t *testing.T) {
	u := refine.Universal(sigmaRAB)
	c := FromITree(u)
	back, err := c.ToITree()
	if err != nil {
		t.Fatal(err)
	}
	samples := []tree.Tree{
		{Root: tree.New("root", v(0))},
		{Root: tree.New("a", v(1), tree.New("b", v(2)))},
		{Root: tree.New("root", v(0), tree.New("a", v(1)), tree.New("b", v(1)))},
	}
	for _, s := range samples {
		if !back.Member(s) {
			t.Errorf("round-tripped universal tree rejected:\n%s", s)
		}
	}
	if c.Empty() {
		t.Error("universal conjunctive tree reported empty")
	}
}

func TestRefinePlusMatchesRefine(t *testing.T) {
	// Two steps of Example 3.2 with empty answers; the conjunctive tree and
	// the regular Refine chain must represent the same set.
	r := refine.NewRefiner(sigmaRAB, nil)
	c := FromITree(refine.Universal(sigmaRAB))
	for i := int64(1); i <= 2; i++ {
		q := blowupQuery(i)
		if err := r.Observe(q, tree.Empty()); err != nil {
			t.Fatal(err)
		}
		if err := c.RefinePlus(q, tree.Empty(), sigmaRAB); err != nil {
			t.Fatal(err)
		}
	}
	expanded, err := c.ToITree()
	if err != nil {
		t.Fatal(err)
	}
	regular := r.Tree()
	// Pointwise equality over a deliberately tricky sample: worlds with a=i
	// and b=i children in all combinations.
	mk := func(avals, bvals []int64) tree.Tree {
		root := tree.New("root", v(0))
		for _, av := range avals {
			root.Children = append(root.Children, tree.New("a", v(av)))
		}
		for _, bv := range bvals {
			root.Children = append(root.Children, tree.New("b", v(bv)))
		}
		return tree.Tree{Root: root}
	}
	samples := []tree.Tree{
		mk(nil, nil),
		mk([]int64{1}, nil),        // a=1 with no b=1: fine (query 1 needs both)
		mk([]int64{1}, []int64{1}), // full match of query 1: should be excluded
		mk([]int64{1}, []int64{2}), // a=1,b=2: matches neither query fully
		mk([]int64{2}, []int64{2}), // full match of query 2: excluded
		mk([]int64{1, 2}, []int64{3}),
		mk([]int64{3}, []int64{3}),    // matches neither
		mk([]int64{1, 2}, []int64{1}), // query 1 match present: excluded
		{Root: tree.New("a", v(0))},   // different root label
	}
	for i, s := range samples {
		want := regular.Member(s)
		got := expanded.Member(s)
		if got != want {
			t.Errorf("sample %d: conj member = %v, regular = %v\n%s", i, got, want, s)
		}
	}
	// Explicit semantics checks.
	if expanded.Member(mk([]int64{1}, []int64{1})) {
		t.Error("world matching query 1 accepted despite empty answer")
	}
	if !expanded.Member(mk([]int64{1}, []int64{2})) {
		t.Error("world matching no query rejected")
	}
}

func TestRefinePlusSizeLinear(t *testing.T) {
	// Corollary 3.9: conjunctive size grows linearly in the query sequence.
	c := FromITree(refine.Universal(sigmaRAB))
	var sizes []int
	for i := int64(1); i <= 8; i++ {
		if err := c.RefinePlus(blowupQuery(i), tree.Empty(), sigmaRAB); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, c.Size())
	}
	// Per-step growth must be constant (each step adds the same structure).
	d1 := sizes[1] - sizes[0]
	for i := 2; i < len(sizes); i++ {
		if d := sizes[i] - sizes[i-1]; d != d1 {
			t.Errorf("step %d growth %d differs from %d — not additive", i, d, d1)
		}
	}
}

func TestEmptyGuessAgreesWithExpansion(t *testing.T) {
	// Nonempty case.
	c := FromITree(refine.Universal(sigmaRAB))
	if err := c.RefinePlus(blowupQuery(1), tree.Empty(), sigmaRAB); err != nil {
		t.Fatal(err)
	}
	expanded, err := c.ToITree()
	if err != nil {
		t.Fatal(err)
	}
	if c.Empty() != expanded.Empty() {
		t.Errorf("NP emptiness %v disagrees with expansion %v", c.Empty(), expanded.Empty())
	}
	if c.Empty() {
		t.Error("refined universal tree should be nonempty")
	}
	// Empty case: impossible root constraint (root label both a and b).
	dead := New()
	dead.Sigma["x"] = ctype.LabelTarget("a")
	dead.Sigma["y"] = ctype.LabelTarget("b")
	dead.Roots = []RootChoice{{"x"}, {"y"}}
	if !dead.Empty() {
		t.Error("contradictory root constraint not detected as empty")
	}
	deadExpanded, err := dead.ToITree()
	if err != nil {
		t.Fatal(err)
	}
	if !deadExpanded.Empty() {
		t.Error("expanded contradictory tree not empty")
	}
}

func TestEmptyContradictoryConditions(t *testing.T) {
	// Root must be typed by both x (cond = 1) and y (cond = 2): empty.
	dead := New()
	dead.Sigma["x"] = ctype.LabelTarget("a")
	dead.Sigma["y"] = ctype.LabelTarget("a")
	dead.Cond["x"] = cond.EqInt(1)
	dead.Cond["y"] = cond.EqInt(2)
	dead.Roots = []RootChoice{{"x"}, {"y"}}
	if !dead.Empty() {
		t.Error("contradictory conditions not detected as empty")
	}
	// Relaxing y makes it nonempty.
	alive := New()
	alive.Sigma["x"] = ctype.LabelTarget("a")
	alive.Sigma["y"] = ctype.LabelTarget("a")
	alive.Cond["x"] = cond.EqInt(1)
	alive.Cond["y"] = cond.LeInt(5)
	alive.Roots = []RootChoice{{"x"}, {"y"}}
	if alive.Empty() {
		t.Error("satisfiable conjunctive root reported empty")
	}
}

func TestMemberWithDataNodes(t *testing.T) {
	// A world observed by one query, then a second query adds a conjunct.
	world := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("x", "a", v(1)),
		tree.NewID("y", "b", v(2)))}
	q1 := query.Query{Root: query.N("root", cond.True(), query.N("a", cond.EqInt(1)))}
	q2 := query.Query{Root: query.N("root", cond.True(), query.N("b", cond.EqInt(2)))}
	c := FromITree(refine.Universal(sigmaRAB))
	if err := c.RefinePlus(q1, q1.Eval(world), sigmaRAB); err != nil {
		t.Fatal(err)
	}
	if err := c.RefinePlus(q2, q2.Eval(world), sigmaRAB); err != nil {
		t.Fatal(err)
	}
	if !c.Member(world) {
		t.Error("true world rejected")
	}
	// Missing either reported node: rejected.
	noX := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("y", "b", v(2)))}
	if c.Member(noX) {
		t.Error("world missing reported node x accepted")
	}
	// Extra unreported a=1 node: rejected.
	extra := world.Clone()
	extra.Root.Children = append(extra.Root.Children, tree.New("a", v(1)))
	if c.Member(extra) {
		t.Error("world with unreported a=1 accepted")
	}
	// Extra a=3 node: fine.
	extra3 := world.Clone()
	extra3.Root.Children = append(extra3.Root.Children, tree.New("a", v(3)))
	if !c.Member(extra3) {
		t.Error("world with unobserved a=3 rejected")
	}
	// Conflicting re-report of a node errors out.
	conflicting := refine.MustFromQueryAnswer(q1,
		tree.Tree{Root: tree.NewID("r", "root", v(5),
			tree.NewID("x", "a", v(1)))}, sigmaRAB)
	_ = conflicting
	cc := FromITree(refine.Universal(sigmaRAB))
	if err := cc.RefinePlus(q1, q1.Eval(world), sigmaRAB); err != nil {
		t.Fatal(err)
	}
	badWorld := tree.Tree{Root: tree.NewID("r", "root", v(5),
		tree.NewID("x", "a", v(1)))}
	if err := cc.RefinePlus(q1, badWorld, sigmaRAB); err == nil {
		t.Error("conflicting node report accepted")
	}
}

// TestRefinePlusIncompatibleNode: a known node re-reported with another
// value violates the Lemma 3.3 precondition, which RefinePlus reports as
// the Refine fold does (refine.ErrIncompatible), leaving the tree as it was.
func TestRefinePlusIncompatibleNode(t *testing.T) {
	q := query.Query{Root: query.N("root", cond.True(), query.N("a", cond.True()))}
	answer := func(x int64) tree.Tree {
		return q.Eval(tree.Tree{Root: tree.NewID("r", "root", v(0), tree.NewID("x", "a", v(x)))})
	}
	c := FromITree(refine.Universal(sigmaRAB))
	if err := c.RefinePlus(q, answer(1), sigmaRAB); err != nil {
		t.Fatal(err)
	}
	rendered, nodes := c.String(), maps.Clone(c.Nodes)
	if err := c.RefinePlus(q, answer(2), sigmaRAB); !errors.Is(err, refine.ErrIncompatible) {
		t.Fatalf("conflicting re-report: err = %v, want refine.ErrIncompatible", err)
	}
	if c.String() != rendered || !maps.EqualFunc(c.Nodes, nodes, func(a, b itree.NodeInfo) bool {
		return a.Label == b.Label && a.Value.Equal(b.Value)
	}) {
		t.Errorf("rejected re-report changed the tree:\n%s", c)
	}
}

func TestSizeAndString(t *testing.T) {
	c := FromITree(refine.Universal(sigmaRAB))
	if c.Size() == 0 {
		t.Error("size should be positive")
	}
	if c.String() == "" {
		t.Error("empty String rendering")
	}
}

func TestEffectiveCondAndTargets(t *testing.T) {
	c := New()
	c.Nodes["n"] = itree.NodeInfo{Label: "a", Value: v(5)}
	c.Sigma["s"] = ctype.NodeTarget("n")
	c.Cond["s"] = cond.GeInt(0)
	if got := c.EffectiveCond("s"); !got.Equal(cond.EqInt(5)) {
		t.Errorf("EffectiveCond = %v", got)
	}
	c.Sigma["ghost"] = ctype.NodeTarget("missing")
	if c.EffectiveCond("ghost").Satisfiable() {
		t.Error("unknown node target should be unsatisfiable")
	}
	defer func() {
		if recover() == nil {
			t.Error("TargetFor on unknown symbol did not panic")
		}
	}()
	c.TargetFor("nosuch")
}

func TestMemberEmptyTree(t *testing.T) {
	c := New()
	c.MayBeEmpty = true
	if !c.Member(tree.Empty()) {
		t.Error("MayBeEmpty conjunctive tree rejected the empty tree")
	}
	c.MayBeEmpty = false
	if c.Member(tree.Empty()) {
		t.Error("empty tree accepted without MayBeEmpty")
	}
}
