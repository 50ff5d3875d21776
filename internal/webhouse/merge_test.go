package webhouse

import (
	"context"
	"sync"
	"testing"

	"incxml/internal/faulty"
	"incxml/internal/mediator"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// hiddenCameraCatalog is a catalog whose leica is invisible to Queries 1
// and 2 (too expensive, no picture), so Query4's completion must fetch it.
func hiddenCameraCatalog() tree.Tree {
	return workload.CatalogDocument([]workload.Product{
		{ID: "canon", Name: 10, Price: 120, Subcat: workload.ValCamera, Pictures: []int64{20}},
		{ID: "leica", Name: 17, Price: 999, Subcat: workload.ValCamera},
	})
}

// exploredHiddenCamera registers doc as "catalog" and explores Queries 1
// and 2, which leave Query4 uncertified.
func exploredHiddenCamera(t testing.TB, doc tree.Tree) (*Webhouse, *Source) {
	t.Helper()
	src, err := NewSource("catalog", workload.CatalogType(), doc)
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
	return wh, src
}

// withValues returns a copy of doc whose name values are shifted by delta:
// the same persistent ids, different content.
func withValues(doc tree.Tree, delta int64) tree.Tree {
	out := doc.Clone()
	out.Walk(func(n *tree.Node) {
		if n.Label == "name" {
			n.Value = n.Value.Add(rat.FromInt(delta))
		}
	})
	return out
}

// TestCompletionMergesOnlyWrapperAnswers answers a completion through a
// client backed by its own Source holding D, after the registered Source's
// document was changed without telling the webhouse. The merge sees only
// the known data and the client's answers, so the answer is q(D); a merge
// that read the registered document would take the changed names.
func TestCompletionMergesOnlyWrapperAnswers(t *testing.T) {
	doc := hiddenCameraCatalog()
	wh, src := exploredHiddenCamera(t, doc)
	wrapper, err := NewSource("catalog", workload.CatalogType(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.SetClient("catalog", faulty.NewDirect(wrapper)); err != nil {
		t.Fatal(err)
	}
	if err := src.Update(withValues(doc, 1000)); err != nil {
		t.Fatal(err)
	}
	q := workload.Query4()
	ca, err := wh.AnswerComplete(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Degraded || ca.LocalQueries == 0 {
		t.Fatalf("want a completion, got degraded=%v with %d local queries", ca.Degraded, ca.LocalQueries)
	}
	if want := q.Eval(doc); !ca.Answer.Equal(want) {
		t.Errorf("completion answered\n%s\nwant q(D)\n%s", ca.Answer, want)
	}
	if n, _ := wrapper.Served(); n != ca.LocalQueries {
		t.Errorf("wrapper served %d queries, want the %d local queries", n, ca.LocalQueries)
	}
}

// resettingClient answers local queries from a fixed document and runs
// reset once, before the first of them: a reset that lands between
// AnswerComplete's snapshot and its fold. Whole queries go to the
// registered source.
type resettingClient struct {
	faulty.SourceClient
	local *Source
	once  sync.Once
	reset func()
}

func (c *resettingClient) AskLocal(ctx context.Context, lq mediator.LocalQuery) (tree.Tree, error) {
	c.once.Do(c.reset)
	return faulty.NewDirect(c.local).AskLocal(ctx, lq)
}

// renamed returns a copy of doc whose every persistent id carries prefix.
func renamed(doc tree.Tree, prefix string) tree.Tree {
	out := doc.Clone()
	out.Walk(func(n *tree.Node) { n.ID = tree.NodeID(prefix) + n.ID })
	return out
}

// TestCompletionAfterResetReposesWhole: an Invalidate or Update between the
// snapshot and the fold dropped the knowledge the completion extends. The
// merged answer is not folded; the query is re-posed whole, so the answer
// is the new document's and the knowledge holds no node of the old one.
func TestCompletionAfterResetReposesWhole(t *testing.T) {
	oldDoc := hiddenCameraCatalog()
	newDoc := renamed(oldDoc, "v2.")
	for _, tc := range []struct {
		name  string
		reset func(wh *Webhouse, src *Source) error
	}{
		{"update", func(wh *Webhouse, _ *Source) error { return wh.Update("catalog", newDoc) }},
		{"invalidate", func(wh *Webhouse, src *Source) error {
			if err := src.Update(newDoc); err != nil {
				return err
			}
			return wh.Invalidate("catalog")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wh, src := exploredHiddenCamera(t, oldDoc)
			local, err := NewSource("catalog", workload.CatalogType(), oldDoc)
			if err != nil {
				t.Fatal(err)
			}
			reset := false
			c := &resettingClient{SourceClient: faulty.NewDirect(src), local: local, reset: func() {
				if err := tc.reset(wh, src); err != nil {
					t.Error(err)
				}
				reset = true
			}}
			if err := wh.SetClient("catalog", c); err != nil {
				t.Fatal(err)
			}
			q := workload.Query4()
			ca, err := wh.AnswerComplete(context.Background(), "catalog", q)
			if err != nil {
				t.Fatal(err)
			}
			if !reset {
				t.Fatal("the completion asked no local query, so nothing reset")
			}
			if want := q.Eval(newDoc); !ca.Answer.Equal(want) {
				t.Errorf("answered\n%s\nwant the new document's\n%s", ca.Answer, want)
			}
			know, err := wh.Knowledge("catalog")
			if err != nil {
				t.Fatal(err)
			}
			old := oldDoc.IDs()
			know.DataTree().Walk(func(n *tree.Node) {
				if old[n.ID] {
					t.Errorf("the knowledge holds %q from the old document", n.ID)
				}
			})
		})
	}
}

// BenchmarkAnswerCompleteMerge measures the completion of an uncertified
// query: the certify check, Complete, ExecuteAll against the source, Merge
// and the fold. After Queries 1 and 4, Query2's pictures are unknown below
// every known camera, so its completion asks several local queries. Each
// iteration first restores the knowledge from before the completion
// (untimed), so the query stays uncertified.
func BenchmarkAnswerCompleteMerge(b *testing.B) {
	ctx := context.Background()
	src, err := NewSource("catalog", workload.CatalogType(), workload.RandomCatalog(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	wh := New()
	wh.Register(src)
	for _, q := range []query.Query{workload.Query1(200), workload.Query4()} {
		if _, err := wh.Explore(ctx, "catalog", q); err != nil {
			b.Fatal(err)
		}
	}
	_, know, steps, lossy, err := wh.Export("catalog")
	if err != nil {
		b.Fatal(err)
	}
	q := workload.Query2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := wh.RestoreKnowledge("catalog", know, steps, lossy); err != nil {
			b.Fatal(err)
		}
		if _, err := wh.Knowledge("catalog"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ca, err := wh.AnswerComplete(ctx, "catalog", q)
		if err != nil {
			b.Fatal(err)
		}
		// Re-posing q whole counts one local query.
		if ca.LocalQueries < 2 {
			b.Fatalf("%d local queries: the completion did not run", ca.LocalQueries)
		}
	}
}
