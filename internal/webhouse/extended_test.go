package webhouse

import (
	"context"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/pathre"
	"incxml/internal/workload"
)

func exploredWebhouse(t *testing.T) *Webhouse {
	t.Helper()
	src, err := NewSource("catalog", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		t.Fatal(err)
	}
	wh := New()
	wh.Register(src)
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query2()); err != nil {
		t.Fatal(err)
	}
	return wh
}

func TestAnswerExtendedExactWhenCovered(t *testing.T) {
	wh := exploredWebhouse(t)
	// A join query over cheap pictured cameras: two product branches with a
	// shared name variable (trivially satisfiable by one product). Its
	// covering ps-query is Query 3-like and fully answerable.
	q := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(),
			extquery.V("name", "X"),
			extquery.N("price", cond.LtInt(100)),
			extquery.N("cat", cond.EqInt(workload.ValElec),
				extquery.N("subcat", cond.EqInt(workload.ValCamera)))))}
	got, err := wh.AnswerExtended(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExactV != budget.Yes {
		t.Error("covered extended query should be exact")
	}
	if !got.Known.IsEmpty() {
		t.Error("no camera under 100 exists; answer should be empty")
	}
}

func TestAnswerExtendedInexactWhenUncovered(t *testing.T) {
	wh := exploredWebhouse(t)
	// All cameras (the uncoverable Query 4 shape): not exact.
	q := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(),
			extquery.N("name", cond.True()),
			extquery.N("cat", cond.EqInt(workload.ValElec),
				extquery.N("subcat", cond.EqInt(workload.ValCamera)))))}
	got, err := wh.AnswerExtended(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExactV == budget.Yes {
		t.Error("uncovered extended query must not claim exactness")
	}
	if got.Known.Find("canon") == nil {
		t.Error("known cameras missing from the local answer")
	}
}

func TestAnswerExtendedNonMonotoneNeverExact(t *testing.T) {
	wh := exploredWebhouse(t)
	// Negation: products without pictures. Unseen data could flip verdicts;
	// never exact, but still answered over the known data.
	q := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(),
			extquery.N("name", cond.True()),
			extquery.Negated(extquery.N("picture", cond.True()))))}
	got, err := wh.AnswerExtended(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExactV == budget.Yes {
		t.Error("negation query claimed exactness")
	}
	// Optional subtrees: likewise inexact.
	qOpt := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(),
			extquery.Optional(extquery.N("picture", cond.True()))))}
	if got, err := wh.AnswerExtended(context.Background(), "catalog", qOpt); err != nil || got.ExactV == budget.Yes {
		t.Errorf("optional query exactness = %v, err = %v", got.ExactV, err)
	}
	// Path expressions: inexact.
	qPath := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.OnPath(extquery.N("subcat", cond.True()), pathre.AnyStar()))}
	if got, err := wh.AnswerExtended(context.Background(), "catalog", qPath); err != nil || got.ExactV == budget.Yes {
		t.Errorf("path query exactness = %v, err = %v", got.ExactV, err)
	}
}

func TestAnswerExtendedBranchingMergedLeaves(t *testing.T) {
	wh := exploredWebhouse(t)
	// Two same-label leaf branches (prices in two ranges) merge into one
	// covering condition.
	q := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(),
			extquery.N("price", cond.LtInt(60)),
			extquery.N("price", cond.GtInt(5000))))}
	got, err := wh.AnswerExtended(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	// Both branches must match one product's single price: impossible here,
	// so the known answer is empty. Exactness depends on coverage of the
	// merged query; either verdict is sound, but the answer must be empty.
	if !got.Known.IsEmpty() {
		t.Error("contradictory price branches matched")
	}
}

func TestAnswerExtendedUnknownSource(t *testing.T) {
	wh := New()
	if _, err := wh.AnswerExtended(context.Background(), "nope", extquery.Query{}); err == nil {
		t.Error("unknown source accepted")
	}
}
