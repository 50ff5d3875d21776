package extquery_test

import (
	"errors"
	"math/rand"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/pathre"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// randomCatalogExtQuery generates a random extended query over the catalog
// schema, exercising all Section 4 features: branching, optionals,
// negation, path-expression edges, and variable joins.
func randomCatalogExtQuery(r *rand.Rand) extquery.Query {
	product := extquery.N("product", cond.True())
	// Required selection on a random facet.
	switch r.Intn(3) {
	case 0:
		product.Children = append(product.Children,
			extquery.N("cat", cond.EqInt(int64(1+r.Intn(3)))))
	case 1:
		product.Children = append(product.Children,
			extquery.N("price", cond.LtInt(int64(50+r.Intn(400)))))
	default:
		product.Children = append(product.Children, extquery.N("name", cond.True()))
	}
	if r.Intn(2) == 0 { // branching: a second same-label sibling
		product.Children = append(product.Children,
			extquery.N("cat", cond.True(), extquery.N("subcat", cond.True())))
	}
	if r.Intn(3) == 0 {
		product.Children = append(product.Children,
			extquery.Optional(extquery.N("picture", cond.True())))
	}
	if r.Intn(3) == 0 {
		product.Children = append(product.Children,
			extquery.Negated(extquery.N("price", cond.LtInt(int64(r.Intn(100))))))
	}
	if r.Intn(3) == 0 { // join two products on cat through a shared variable
		p2 := extquery.N("product", cond.True(), extquery.V("cat", "x"))
		product.Children = append(product.Children, extquery.V("cat", "x"))
		root := extquery.N("catalog", cond.True(), product, p2)
		return extquery.Query{Root: root}
	}
	if r.Intn(3) == 0 { // reach subcat through a recursive path edge
		deep := extquery.OnPath(extquery.N("subcat", cond.True()),
			pathre.MustParse("product cat subcat"))
		root := extquery.N("catalog", cond.True(), product, deep)
		return extquery.Query{Root: root}
	}
	if r.Intn(4) == 0 {
		product.Children[0].Extract = true
	}
	return extquery.Query{Root: extquery.N("catalog", cond.True(), product)}
}

// TestAnswerBudgetedDifferential pins the budgeted evaluator against the
// exact in-package oracle on a random corpus: with an ample budget the
// answers must be identical trees.
func TestAnswerBudgetedDifferential(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := workload.RandomCatalog(2+r.Intn(6), seed)
		q := randomCatalogExtQuery(r)

		want := q.Answer(doc)
		bud := budget.New(nil, 1<<24)
		got, err := q.AnswerBudgeted(doc, bud)
		if err != nil {
			t.Fatalf("seed %d: ample budget exhausted: %v", seed, err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: budgeted answer differs from oracle\n got: %s\nwant: %s",
				seed, got.String(), want.String())
		}
	}
}

// negatedCatalogQuery generates a random catalog query that always carries
// a ¬-subtree, so the never-wrong sweep exhausts budgets inside negated-child
// checks.
func negatedCatalogQuery(r *rand.Rand) extquery.Query {
	product := extquery.N("product", cond.True())
	if r.Intn(2) == 0 {
		product.Children = append(product.Children, extquery.N("name", cond.True()))
	}
	neg := extquery.N("price", cond.LtInt(int64(r.Intn(1_000_000))))
	if r.Intn(3) == 0 {
		neg = extquery.N("cat", cond.True(), extquery.N("subcat", cond.True()))
	}
	product.Children = append(product.Children, extquery.Negated(neg))
	return extquery.Query{Root: extquery.N("catalog", cond.True(), product)}
}

// TestAnswerBudgetedNeverWrong: at every small budget the evaluator must
// either complete with the oracle's answer or fail loudly (budget error)
// with an empty answer, never return a truncated one. The sweep covers
// random extended queries and negation-bearing ones, where exhaustion inside
// a negated-child check would otherwise keep an unverified valuation. The
// fixed query has no valuation on these catalogs, whose every product has a
// price below 1 000 000: a budget that runs out while its negated child is
// being checked must not produce an answer.
func TestAnswerBudgetedNeverWrong(t *testing.T) {
	fixed := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(),
			extquery.Negated(extquery.N("price", cond.LtInt(1000000)))))}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := workload.RandomCatalog(4+r.Intn(6), seed)
		for _, q := range []extquery.Query{randomCatalogExtQuery(r), negatedCatalogQuery(r), fixed} {
			oracle := q.Answer(doc)
			for steps := int64(1); steps <= 64; steps++ {
				got, err := q.AnswerBudgeted(doc, budget.New(nil, steps))
				if err == nil {
					if !got.Equal(oracle) {
						t.Fatalf("seed %d steps %d: completed search disagrees with oracle\n%s", seed, steps, q)
					}
					continue
				}
				if !errors.Is(err, budget.ErrExhausted) {
					t.Fatalf("seed %d steps %d: unexpected error %v", seed, steps, err)
				}
				if !got.Equal(tree.Empty()) {
					t.Fatalf("seed %d steps %d: exhausted search leaked a partial answer\n%s", seed, steps, q)
				}
			}
		}
	}
}

// TestClassify pins the hardness-ladder classification.
func TestClassify(t *testing.T) {
	base := func() *extquery.Node {
		return extquery.N("catalog", cond.True(),
			extquery.N("product", cond.True(), extquery.N("name", cond.True())))
	}
	cases := []struct {
		name string
		q    extquery.Query
		want extquery.Class
	}{
		{"plain", extquery.Query{Root: base()}, extquery.ClassPS},
		{"branching", extquery.Query{Root: extquery.N("catalog", cond.True(),
			extquery.N("product", cond.True()), extquery.N("product", cond.True()))},
			extquery.ClassBranching},
		{"optional", extquery.Query{Root: extquery.N("catalog", cond.True(),
			extquery.Optional(extquery.N("product", cond.True())))},
			extquery.ClassBranching},
		{"pathre", extquery.Query{Root: extquery.N("catalog", cond.True(),
			extquery.OnPath(extquery.N("subcat", cond.True()), pathre.MustParse(". . subcat")))},
			extquery.ClassPathRE},
		{"join-sharedvar", extquery.Query{Root: extquery.N("catalog", cond.True(),
			extquery.V("product", "x"), extquery.V("product", "x"))},
			extquery.ClassJoin},
		{"join-diseq", extquery.Query{Root: base(), Diseq: [][2]string{{"x", "y"}}},
			extquery.ClassJoin},
		{"negation-wins", extquery.Query{Root: extquery.N("catalog", cond.True(),
			extquery.Negated(extquery.OnPath(extquery.N("subcat", cond.True()), pathre.MustParse("."))),
			extquery.V("product", "x"), extquery.V("product", "x"))},
			extquery.ClassNegation},
	}
	for _, tc := range cases {
		if got := tc.q.Classify(); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if extquery.ClassNegation.Tractable() || extquery.ClassJoin.Tractable() {
		t.Error("negation/join must be intractable")
	}
	for _, c := range []extquery.Class{extquery.ClassPS, extquery.ClassBranching, extquery.ClassPathRE} {
		if !c.Tractable() {
			t.Errorf("%v must be tractable", c)
		}
	}
}
