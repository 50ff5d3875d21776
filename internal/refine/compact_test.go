package refine

import (
	"fmt"
	"testing"

	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// compactCorpus collects Refine chains in both forms, raw (Refine never
// compacts) and compacted after every step: the blowup chain, 40 random
// types under random linear queries and the catalog under Query1–4, plus
// the WithTreeType output of every tree that has a source type.
func compactCorpus(t *testing.T) map[string]*itree.T {
	t.Helper()
	corpus := map[string]*itree.T{}
	chain := func(name string, sigma []tree.Label, ty *dtd.Type, doc tree.Tree, qs []query.Query) {
		add := func(key string, x *itree.T) {
			corpus[key] = x
			if ty != nil {
				corpus[key+" reachable"] = WithTreeType(x, ty)
			}
		}
		raw := Universal(sigma)
		compacted := raw
		add(name+" universal", raw)
		for i, q := range qs {
			a := q.Eval(doc)
			next, err := Refine(raw, q, a, sigma)
			if err != nil {
				t.Fatal(err)
			}
			raw = next
			if next, err = Refine(compacted, q, a, sigma); err != nil {
				t.Fatal(err)
			}
			compacted = Compact(next)
			add(fmt.Sprintf("%s raw %d", name, i), raw)
			add(fmt.Sprintf("%s compacted %d", name, i), compacted)
		}
	}
	chain("blowup", workload.BlowupSigma, nil, workload.BlowupWorld(), workload.BlowupWorkload(5))
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
	chain("catalog", workload.CatalogSigma, workload.CatalogType(), workload.PaperCatalog(),
		[]query.Query{workload.Query1(200), workload.Query2(), workload.Query3(200), workload.Query4()})
	return corpus
}

// TestCompactMatchesReference pins Compact's output to the four-pass
// compaction it replaced (reference_test.go): same rendering, same
// MayBeEmpty, same size, on every tree of the corpus.
func TestCompactMatchesReference(t *testing.T) {
	corpus := compactCorpus(t)
	t.Logf("%d trees", len(corpus))
	if len(corpus) < 800 {
		t.Fatalf("corpus has %d trees, want at least 800", len(corpus))
	}
	for name, in := range corpus {
		got, want := Compact(in), referenceCompact(in)
		if got.String() != want.String() || got.MayBeEmpty != want.MayBeEmpty || got.Size() != want.Size() {
			t.Errorf("%s: Compact differs from the reference\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
