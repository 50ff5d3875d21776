package refine

import (
	"context"
	"errors"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

func bv(n int64) rat.Rat { return rat.FromInt(n) }

var budSigma = []tree.Label{"root", "a", "b"}

func budBlowupQuery(i int64) query.Query {
	return query.Query{Root: query.N("root", cond.True(),
		query.N("a", cond.EqInt(i)),
		query.N("b", cond.EqInt(i)))}
}

// TestIntersectBudgetedAgrees: with enough budget the budgeted intersection
// is the exact one; starved, it returns the budget error and no tree.
func TestIntersectBudgetedAgrees(t *testing.T) {
	u := Universal(budSigma)
	qa, err := FromQueryAnswer(budBlowupQuery(1), tree.Empty(), budSigma)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Intersect(u, qa)
	if err != nil {
		t.Fatal(err)
	}
	got, err := IntersectBudgeted(u, qa, budget.New(context.Background(), 1000000))
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := itree.EqualRepSets(exact, got, itree.DefaultBounds()); !ok {
		t.Fatalf("budgeted intersection differs: %s", diff)
	}
	starved, err := IntersectBudgeted(u, qa, budget.New(context.Background(), 1))
	if err == nil {
		t.Fatal("one-step budget completed a product construction")
	}
	if !errors.Is(err, budget.ErrExhausted) || starved != nil {
		t.Fatalf("starved intersection: tree=%v err=%v", starved, err)
	}
}

// TestObserveBudgetedExactWhenAffordable: with a generous budget,
// ObserveBudgeted is Observe — same representation, not lossy.
func TestObserveBudgetedExactWhenAffordable(t *testing.T) {
	world := tree.Tree{Root: tree.NewID("r", "root", bv(0),
		tree.NewID("a1", "a", bv(1)), tree.NewID("b1", "b", bv(2)))}
	exact := NewRefiner(budSigma, nil)
	budgeted := NewRefiner(budSigma, nil)
	for i := int64(1); i <= 3; i++ {
		q := budBlowupQuery(i)
		a := q.Eval(world)
		if err := exact.Observe(q, a); err != nil {
			t.Fatal(err)
		}
		lossy, err := budgeted.ObserveBudgeted(q, a, budget.New(context.Background(), 10_000_000))
		if err != nil {
			t.Fatal(err)
		}
		if lossy || budgeted.Lossy() {
			t.Fatal("generous budget degraded")
		}
	}
	if ok, diff := itree.EqualRepSets(exact.Tree(), budgeted.Tree(), itree.DefaultBounds()); !ok {
		t.Fatalf("budgeted chain diverged from exact chain: %s", diff)
	}
}

// TestObserveBudgetedLossyIsSuperset: a starved chain degrades to a lossy
// over-approximation — flagged, smaller than uncontrolled growth, and a
// rep-superset of the exact chain (checked over bounded enumeration).
func TestObserveBudgetedLossyIsSuperset(t *testing.T) {
	world := tree.Tree{Root: tree.NewID("r", "root", bv(0),
		tree.NewID("a1", "a", bv(1)), tree.NewID("b1", "b", bv(2)))}
	exact := NewRefiner(budSigma, nil)
	budgeted := NewRefiner(budSigma, nil)
	sawLossy := false
	for i := int64(1); i <= 5; i++ {
		q := budBlowupQuery(i)
		a := q.Eval(world)
		if err := exact.Observe(q, a); err != nil {
			t.Fatal(err)
		}
		lossy, err := budgeted.ObserveBudgeted(q, a, budget.New(context.Background(), 60))
		if err != nil {
			t.Fatal(err)
		}
		sawLossy = sawLossy || lossy
	}
	if !sawLossy || !budgeted.Lossy() {
		t.Fatal("starved chain never degraded; lower the budget")
	}
	// Superset: every bounded member of the exact refinement remains a
	// member of the lossy one.
	rel := map[tree.NodeID]bool{}
	for id := range exact.Tree().Nodes {
		rel[id] = true
	}
	for id := range budgeted.Tree().Nodes {
		rel[id] = true
	}
	bounds := itree.DefaultBounds()
	bounds.MaxTrees = 4000
	exactSet := exact.Tree().RepSet(bounds, rel)
	lossySet := budgeted.Tree().RepSet(bounds, rel)
	if len(exactSet) == 0 {
		t.Fatal("exact chain has no bounded members to check")
	}
	for k := range exactSet {
		if !lossySet[k] {
			t.Fatalf("lossy chain lost member %q", k)
		}
	}
	// The true world must survive in both.
	if !exact.Tree().Member(world) || !budgeted.Tree().Member(world) {
		t.Fatal("true world rejected")
	}
}
