package webhouse

import (
	"context"
	"testing"

	"incxml/internal/answer"
	"incxml/internal/itree"
	"incxml/internal/obs"
	"incxml/internal/query"
	"incxml/internal/workload"
)

// observed reads incxml_refine_observe_total for one outcome.
func observed(outcome string) float64 {
	return obs.Default().Snapshot()[`incxml_refine_observe_total{outcome="`+outcome+`"}`]
}

// TestRedundantExploreKeepsSnapshot re-poses an answered query: the fold
// is skipped, so the knowledge snapshot and the answers memoized on it
// survive, the observation count stays, and the event is still journaled
// and counted as redundant.
func TestRedundantExploreKeepsSnapshot(t *testing.T) {
	ctx := context.Background()
	wh, _ := newCatalogWebhouse(t)
	j := &recordingJournal{}
	wh.SetJournal(j)
	first, err := wh.Explore(ctx, "catalog", workload.Query1(200))
	if err != nil {
		t.Fatal(err)
	}
	know, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Query3(100)
	if _, err := wh.AnswerLocally(ctx, "catalog", q); err != nil {
		t.Fatal(err)
	}
	_, _, steps, _, _ := wh.Export("catalog")
	events, redundant := j.events, observed("redundant")

	again, err := wh.Explore(ctx, "catalog", workload.Query1(200))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Answer.Equal(first.Answer) {
		t.Fatalf("re-posed query answered %v, first answer %v", again.Answer, first.Answer)
	}
	if got, _ := wh.Knowledge("catalog"); got != know {
		t.Error("a redundant observation replaced the knowledge snapshot")
	}
	if _, ok := know.Recall(itree.MemoLocal, q.String()); !ok {
		t.Error("the memoized local answer did not survive the redundant observation")
	}
	before := wh.Stats()
	if _, err := wh.AnswerLocally(ctx, "catalog", q); err != nil {
		t.Fatal(err)
	}
	if wh.Stats().AnswerCacheHits != before.AnswerCacheHits+1 {
		t.Error("the local answer after a redundant observation was not a memo hit")
	}
	if _, _, got, _, _ := wh.Export("catalog"); got != steps {
		t.Errorf("observation count %d after a redundant observation, want %d", got, steps)
	}
	if j.events != events+1 {
		t.Errorf("journal got %d events for the redundant observation, want 1", j.events-events)
	}
	if got := observed("redundant"); got != redundant+1 {
		t.Errorf(`outcome="redundant" moved by %v, want 1`, got-redundant)
	}
}

// TestCertifiedQueryWithChangedAnswerRefolds: a certified query whose
// source answer is no longer q(data(T)) — the source changed unannounced —
// is not redundant. It folds, contradicts the knowledge, and recovers
// through a fresh refiner.
func TestCertifiedQueryWithChangedAnswerRefolds(t *testing.T) {
	ctx := context.Background()
	wh, src := newCatalogWebhouse(t)
	q := workload.Query1(200)
	for _, p := range []query.Query{workload.Query2(), q} {
		if _, err := wh.Explore(ctx, "catalog", p); err != nil {
			t.Fatal(err)
		}
	}
	know, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if fully, err := answer.FullyAnswerable(know, q); err != nil || !fully {
		t.Fatalf("Query 1 not certified after exploring it: %v, %v", fully, err)
	}
	changed := workload.CatalogDocument([]workload.Product{
		{ID: "canon", Name: 10, Price: 180, Subcat: workload.ValCamera, Pictures: []int64{20}},
		{ID: "nikon", Name: 11, Price: 199, Subcat: workload.ValCamera},
	})
	if err := src.Update(changed); err != nil {
		t.Fatal(err)
	}
	redundant, inconsistent := observed("redundant"), observed("inconsistent")
	a, err := wh.Explore(ctx, "catalog", q)
	if err != nil {
		t.Fatalf("exploration after the source change: %v", err)
	}
	if a.Answer.Equal(q.Eval(know.DataTree())) {
		t.Fatal("the changed source gave the known answer; the test needs a different one")
	}
	if observed("redundant") != redundant {
		t.Error("a changed answer was taken as redundant")
	}
	if observed("inconsistent") != inconsistent+1 {
		t.Error("the changed answer did not reach the inconsistency path")
	}
	got, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if got == know || !got.Member(changed) {
		t.Error("the knowledge was not rebuilt around the changed document")
	}
	if _, _, steps, _, _ := wh.Export("catalog"); steps != 1 {
		t.Errorf("steps = %d after recovery, want 1 (a fresh refiner)", steps)
	}
}

// BenchmarkRedundantExplore measures the path a re-posed query takes on a
// fully acquired source: the source call, the redundancy check on the
// memoized verdict, the skipped fold, and a local answer served from the
// snapshot that survived.
func BenchmarkRedundantExplore(b *testing.B) {
	ctx := context.Background()
	src, err := NewSource("catalog", workload.CatalogType(), workload.RandomCatalog(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	wh := New()
	wh.Register(src)
	q := workload.Query4()
	for _, p := range []query.Query{query.MustParse("catalog!\n"), q} {
		if _, err := wh.Explore(ctx, "catalog", p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wh.Explore(ctx, "catalog", q); err != nil {
			b.Fatal(err)
		}
		if _, err := wh.AnswerLocally(ctx, "catalog", q); err != nil {
			b.Fatal(err)
		}
	}
}
