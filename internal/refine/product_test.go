package refine

import (
	"context"
	"fmt"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// productPairs collects the (accumulated tree, T_{q,A}) pairs that Refine
// intersects along compacting chains: the catalog under Query1–4, the E3
// chains over RandomCatalog(n, 2), the E4 blowup chain, and 40 random types
// under random linear queries. The first pair of every chain is Universal
// ∩ T_{q,A}.
func productPairs(t *testing.T) map[string][2]*itree.T {
	t.Helper()
	pairs := map[string][2]*itree.T{}
	chain := func(name string, sigma []tree.Label, ty *dtd.Type, doc tree.Tree, qs []query.Query) {
		r := NewRefiner(sigma, ty)
		for i, q := range qs {
			a := q.Eval(doc)
			qa, err := FromQueryAnswer(q, a, sigma)
			if err != nil {
				t.Fatal(err)
			}
			pairs[fmt.Sprintf("%s %d", name, i)] = [2]*itree.T{r.Tree(), qa}
			if err := r.Observe(q, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	chain("catalog", workload.CatalogSigma, workload.CatalogType(), workload.PaperCatalog(),
		[]query.Query{workload.Query1(200), workload.Query2(), workload.Query3(200), workload.Query4()})
	for _, n := range []int{4, 16} {
		chain(fmt.Sprintf("E3 products=%d", n), workload.CatalogSigma, workload.CatalogType(),
			workload.RandomCatalog(n, 2), []query.Query{workload.Query1(200), workload.Query2()})
	}
	chain("E4 blowup", workload.BlowupSigma, nil, workload.BlowupWorld(), workload.BlowupWorkload(6))
	for seed := int64(0); seed < 40; seed++ {
		ty := workload.RandomType(seed, 4)
		doc, err := workload.RandomTree(ty, seed+5, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		var qs []query.Query
		for k := int64(0); k < 5; k++ {
			qs = append(qs, workload.RandomLinearQuery(ty, seed*10+k, 3, 6))
		}
		chain(fmt.Sprintf("random %d", seed), ty.Alphabet(), ty, doc, qs)
	}
	return pairs
}

// TestProductMatchesReference pins the two-factor Product behind
// IntersectBudgeted to the pair product it replaced
// (intersect_reference_test.go): the same rendering and MayBeEmpty, and the
// same budget cost, on every pair of the corpus. On small pairs the outcome
// and the steps charged also agree at every budget up to the exact cost.
func TestProductMatchesReference(t *testing.T) {
	ctx := context.Background()
	pairs := productPairs(t)
	if len(pairs) < 200 {
		t.Fatalf("corpus has %d pairs, want at least 200", len(pairs))
	}
	swept := 0
	for name, p := range pairs {
		wantBud, gotBud := budget.New(ctx, 0), budget.New(ctx, 0)
		want, err := referenceIntersect(p[0], p[1], wantBud)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := IntersectBudgeted(p[0], p[1], gotBud)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.String() != want.String() || got.MayBeEmpty != want.MayBeEmpty {
			t.Fatalf("%s: product differs from the reference\ngot:\n%s\nwant:\n%s", name, got, want)
		}
		cost := wantBud.Used()
		if gotBud.Used() != cost {
			t.Fatalf("%s: charged %d steps, reference %d", name, gotBud.Used(), cost)
		}
		if cost > 60 || swept == 8 {
			continue
		}
		swept++
		for steps := int64(1); steps <= cost; steps++ {
			wantBud, gotBud := budget.New(ctx, steps), budget.New(ctx, steps)
			_, wantErr := referenceIntersect(p[0], p[1], wantBud)
			_, gotErr := IntersectBudgeted(p[0], p[1], gotBud)
			if (gotErr == nil) != (wantErr == nil) || gotBud.Used() != wantBud.Used() {
				t.Fatalf("%s at %d steps: err %v, used %d; reference err %v, used %d",
					name, steps, gotErr, gotBud.Used(), wantErr, wantBud.Used())
			}
		}
	}
	t.Logf("%d pairs, %d swept", len(pairs), swept)
	if swept == 0 {
		t.Fatal("no pair small enough for the budget sweep")
	}
}
