package answer

import (
	"context"
	"errors"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/refine"
	"incxml/internal/workload"
)

// budgetedCases builds (incomplete tree, query) pairs from randomized
// refinement chains over random types, plus the catalog workload.
func budgetedCases(t *testing.T) []struct {
	it *itree.T
	q  query.Query
} {
	t.Helper()
	var cases []struct {
		it *itree.T
		q  query.Query
	}
	add := func(it *itree.T, q query.Query) {
		cases = append(cases, struct {
			it *itree.T
			q  query.Query
		}{it, q})
	}
	for seed := int64(1); seed <= 5; seed++ {
		ty := workload.RandomType(seed, 3)
		doc, err := workload.RandomTree(ty, seed, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		r := refine.NewRefiner(ty.Alphabet(), nil)
		for j := 0; j < 2; j++ {
			q := workload.RandomLinearQuery(ty, seed*7+int64(j), 3, 4)
			if _, err := r.ObserveOn(doc, q); err != nil {
				break
			}
		}
		add(r.Tree(), workload.RandomLinearQuery(ty, seed*13, 3, 4))
	}
	// The paper's catalog scenario.
	cat := workload.PaperCatalog()
	r := refine.NewRefiner(workload.CatalogSigma, nil)
	q1 := workload.Query1(100)
	if _, err := r.ObserveOn(cat, q1); err != nil {
		t.Fatal(err)
	}
	add(r.Tree(), workload.Query4())
	add(r.Tree(), q1)
	return cases
}

// TestBudgetedDecidersSoundness: the three budgeted deciders agree with
// their exact counterparts whenever they answer, and report Unknown only
// with an exhausted budget.
func TestBudgetedDecidersSoundness(t *testing.T) {
	ctx := context.Background()
	type decider struct {
		name    string
		exact   func(*itree.T, query.Query) (bool, error)
		budget_ func(*itree.T, query.Query, *budget.B) (budget.Tri, error)
	}
	deciders := []decider{
		{"FullyAnswerable", FullyAnswerable, FullyAnswerableBudgeted},
		{"PossiblyNonEmpty", PossiblyNonEmpty, PossiblyNonEmptyBudgeted},
		{"CertainlyNonEmpty", CertainlyNonEmpty, CertainlyNonEmptyBudgeted},
	}
	for ci, c := range budgetedCases(t) {
		// An unmarked clone has no decision memo, so every call below
		// decides afresh under its budget.
		it := c.it.Clone()
		for _, d := range deciders {
			oracle, err := d.exact(it, c.q)
			if err != nil {
				t.Fatalf("case %d %s oracle: %v", ci, d.name, err)
			}
			for _, steps := range []int64{1, 3, 10, 50, 100000} {
				b := budget.New(ctx, steps)
				tri, err := d.budget_(it, c.q, b)
				if tri.Known() {
					if got, _ := tri.Bool(); got != oracle {
						t.Errorf("case %d %s steps=%d: verdict %v, oracle %v", ci, d.name, steps, tri, oracle)
					}
				} else {
					if !errors.Is(err, budget.ErrExhausted) {
						t.Errorf("case %d %s steps=%d: Unknown without exhaustion: %v", ci, d.name, steps, err)
					}
				}
			}
			// Memo carry-over: after an exact computation on a marked
			// snapshot, even a starved budget answers exactly from its memo.
			snap := it.TrimUseless().MarkTrimmed()
			if _, err := d.exact(snap, c.q); err != nil {
				t.Fatal(err)
			}
			tri, err := d.budget_(snap, c.q, budget.New(ctx, 1))
			if err != nil || !tri.Known() {
				t.Errorf("case %d %s: memo hit did not answer exactly: %v, %v", ci, d.name, tri, err)
			}
		}
		checkFacets(t, ci, it, c.q)
	}
}

// checkFacets is Facets as one more input of the soundness sweep: at a nil
// budget its three verdicts equal the standalone deciders', at every budget
// from 1 up to the exact cost of building q(T) no definite verdict
// disagrees with the exact one and Unknown comes only with exhaustion, and
// verdicts memoized on a marked snapshot survive a starved build. it must
// be unmarked, so the budget sweep decides afresh.
func checkFacets(t *testing.T, ci int, it *itree.T, q query.Query) {
	t.Helper()
	ctx := context.Background()
	var oracle [3]budget.Tri
	for i, d := range []func(*itree.T, query.Query, *budget.B) (budget.Tri, error){
		FullyAnswerableBudgeted, CertainlyNonEmptyBudgeted, PossiblyNonEmptyBudgeted,
	} {
		v, err := d(it, q, nil)
		if err != nil {
			t.Fatalf("case %d decider %d: %v", ci, i, err)
		}
		oracle[i] = v
	}
	verdicts := func(l Local) [3]budget.Tri {
		return [3]budget.Tri{l.Fully, l.CertainlyNonEmpty, l.PossiblyNonEmpty}
	}
	exact, err := Facets(it, q, nil)
	if err != nil || exact.Possible == nil {
		t.Fatalf("case %d Facets exact: %v (Possible %v)", ci, err, exact.Possible)
	}
	if got := verdicts(exact); got != oracle {
		t.Errorf("case %d Facets(nil) = %v, deciders %v", ci, got, oracle)
	}
	meter := budget.New(ctx, 0)
	if _, err := ApplyBudgeted(it, q, meter); err != nil {
		t.Fatal(err)
	}
	cost := meter.Used()
	for steps := int64(1); steps <= cost; steps++ {
		l, err := Facets(it, q, budget.New(ctx, steps))
		for i, v := range verdicts(l) {
			if v.Known() && v != oracle[i] {
				t.Errorf("case %d Facets steps=%d: verdict %d is %v, exact %v", ci, steps, i, v, oracle[i])
			}
			if !v.Known() && !errors.Is(err, budget.ErrExhausted) {
				t.Errorf("case %d Facets steps=%d: Unknown without exhaustion: %v", ci, steps, err)
			}
		}
		if steps == cost && (err != nil || verdicts(l) != oracle) {
			t.Errorf("case %d Facets at the exact cost %d: %v, %v", ci, cost, verdicts(l), err)
		}
	}
	// Memo carry-over: verdicts an exact run memoized on a marked snapshot
	// stand even when a starved build fails.
	snap := it.TrimUseless().MarkTrimmed()
	if _, err := Facets(snap, q, nil); err != nil {
		t.Fatal(err)
	}
	if l, err := Facets(snap, q, budget.New(ctx, 1)); verdicts(l) != oracle {
		t.Errorf("case %d Facets on a warm memo: %v, exact %v (%v)", ci, verdicts(l), oracle, err)
	}
}

// TestApplyBudgetedExhaustion: ApplyBudgeted returns the budget error, not a
// partial tree, when starved.
func TestApplyBudgetedExhaustion(t *testing.T) {
	cat := workload.PaperCatalog()
	r := refine.NewRefiner(workload.CatalogSigma, nil)
	if _, err := r.ObserveOn(cat, workload.Query1(100)); err != nil {
		t.Fatal(err)
	}
	b := budget.New(context.Background(), 1)
	ans, err := ApplyBudgeted(r.Tree(), workload.Query4(), b)
	if err == nil {
		t.Skip("instance too small to exhaust one step")
	}
	if ans != nil {
		t.Error("partial answer tree returned with error")
	}
	if !errors.Is(err, budget.ErrExhausted) {
		t.Errorf("error does not match ErrExhausted: %v", err)
	}
}
