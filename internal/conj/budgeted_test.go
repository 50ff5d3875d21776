package conj

import (
	"context"
	"errors"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/ctype"
	"incxml/internal/refine"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// budgetedInstances builds a mix of small conjunctive trees with known
// emptiness status: blow-up chains of increasing depth (non-empty), an
// unsatisfiable root conjunction (empty), and trees lifted from randomized
// refinement chains.
func budgetedInstances(t *testing.T) []*T {
	t.Helper()
	var out []*T
	for k := int64(1); k <= 4; k++ {
		c := FromITree(refine.Universal(sigmaRAB))
		for i := int64(1); i <= k; i++ {
			if err := c.RefinePlus(blowupQuery(i), tree.Empty(), sigmaRAB); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, c)
	}
	// Empty: the root must simultaneously carry incompatible labels.
	empty := New()
	empty.Sigma["x"] = ctype.LabelTarget("a")
	empty.Sigma["y"] = ctype.LabelTarget("b")
	empty.Roots = []RootChoice{{"x"}, {"y"}}
	out = append(out, empty)
	// Randomized refinement chains over random types.
	for seed := int64(1); seed <= 4; seed++ {
		ty := workload.RandomType(seed, 3)
		doc, err := workload.RandomTree(ty, seed, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		sigma := ty.Alphabet()
		r := refine.NewRefiner(sigma, nil)
		c := FromITree(refine.Universal(sigma))
		for j := 0; j < 3; j++ {
			q := workload.RandomLinearQuery(ty, seed*10+int64(j), 3, 4)
			a := q.Eval(doc)
			if err := r.Observe(q, a); err != nil {
				// Random chains may go inconsistent; skip the rest.
				break
			}
			if err := c.RefinePlus(q, a, sigma); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, c)
	}
	return out
}

// TestEmptyBudgetedSoundness is the conj half of the soundness property:
// whenever EmptyBudgeted answers Yes/No it agrees with the exact sequential
// oracle, and Unknown appears only together with an exhausted budget.
func TestEmptyBudgetedSoundness(t *testing.T) {
	ctx := context.Background()
	for i, c := range budgetedInstances(t) {
		oracle := c.EmptySequential()
		// Unlimited budget must answer exactly.
		tri, err := c.EmptyBudgeted(ctx, nil)
		if err != nil || !tri.Known() {
			t.Fatalf("instance %d: unlimited budget not exact: %v, %v", i, tri, err)
		}
		if got, _ := tri.Bool(); got != oracle {
			t.Fatalf("instance %d: unlimited verdict %v, oracle %v", i, tri, oracle)
		}
		// Sweep budgets from starvation to plenty.
		for _, steps := range []int64{1, 2, 5, 20, 100, 1000, 100000} {
			b := budget.New(ctx, steps)
			tri, err := c.EmptyBudgeted(ctx, b)
			switch {
			case tri.Known():
				if err != nil {
					t.Errorf("instance %d steps=%d: known verdict with error %v", i, steps, err)
				}
				if got, _ := tri.Bool(); got != oracle {
					t.Errorf("instance %d steps=%d: verdict %v disagrees with oracle %v", i, steps, tri, oracle)
				}
			default:
				if !errors.Is(err, budget.ErrExhausted) {
					t.Errorf("instance %d steps=%d: Unknown without exhaustion error: %v", i, steps, err)
				}
				if !b.Exhausted() {
					t.Errorf("instance %d steps=%d: Unknown but budget not exhausted", i, steps)
				}
			}
		}
	}
}

// TestEmptyBudgetedDeadline: a cancelled context exhausts the budget with
// CauseDeadline rather than returning a wrong verdict — with a step budget
// bound to the context, and with a nil budget, where the search polls the
// context itself (the exact path callers put a timeout on).
func TestEmptyBudgetedDeadline(t *testing.T) {
	c := FromITree(refine.Universal(sigmaRAB))
	for i := int64(1); i <= 3; i++ {
		if err := c.RefinePlus(blowupQuery(i), tree.Empty(), sigmaRAB); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows := []struct {
		name string
		inst *T
		b    *budget.B
	}{
		{"blowup/budget", c, budget.New(ctx, 0)},
		{"hard-empty/nil-budget", hardEmptyInstance(12), nil},
	}
	for _, r := range rows {
		tri, err := r.inst.EmptyBudgeted(ctx, r.b)
		if tri != budget.Unknown {
			// A witness found before the first context poll is still exact;
			// only Yes would be unsound here. The blow-up family is
			// satisfiable, so No is a legitimate early answer there.
			if tri == budget.Yes {
				t.Fatalf("%s: cancelled scan claimed exact emptiness", r.name)
			}
			continue
		}
		if !errors.Is(err, budget.ErrExhausted) {
			t.Fatalf("%s: Unknown without budget error: %v", r.name, err)
		}
		var be *budget.Error
		if !errors.As(err, &be) || be.Cause != budget.CauseDeadline {
			t.Fatalf("%s: err = %v, want cause deadline", r.name, err)
		}
	}
}
