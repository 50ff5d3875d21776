package webhouse

import (
	"context"
	"errors"
	"testing"

	"incxml/internal/faulty"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/refine"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

func newCatalogWebhouse(t *testing.T) (*Webhouse, *Source) {
	t.Helper()
	src, err := NewSource("catalog", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		t.Fatal(err)
	}
	wh := New()
	wh.Register(src)
	return wh, src
}

func TestRegisterAndSources(t *testing.T) {
	wh, _ := newCatalogWebhouse(t)
	if got := wh.Sources(); len(got) != 1 || got[0] != "catalog" {
		t.Errorf("Sources = %v", got)
	}
	if _, err := wh.Repo("nope"); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := NewSource("bad", workload.CatalogType(), tree.Empty()); err == nil {
		t.Error("nonconforming source accepted")
	}
}

func TestExploreAndKnowledge(t *testing.T) {
	wh, src := newCatalogWebhouse(t)
	a, err := wh.Explore(context.Background(), "catalog", workload.Query1(200))
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := src.Served()
	if a.Answer.IsEmpty() || queries != 1 {
		t.Error("exploration did not reach the source")
	}
	know, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if !know.Member(workload.PaperCatalog()) {
		t.Error("true document excluded from knowledge")
	}
	td := know.DataTree()
	if td.Find("canon") == nil {
		t.Error("explored product missing from data tree")
	}
}

// The Example 3.4 session: after Queries 1 and 2, Query 3 answers locally
// and Query 4 needs completion.
func TestExample34Session(t *testing.T) {
	wh, src := newCatalogWebhouse(t)
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query2()); err != nil {
		t.Fatal(err)
	}
	served, _ := src.Served()

	// Query 3: fully answerable locally.
	la, err := wh.AnswerLocally(context.Background(), "catalog", workload.Query3(100))
	if err != nil {
		t.Fatal(err)
	}
	if !la.Fully {
		t.Error("Query 3 should be fully answerable (Example 3.4)")
	}
	if nowServed, _ := src.Served(); nowServed != served {
		t.Error("local answering contacted the source")
	}

	// Query 4: not fully answerable; local modalities are still available.
	la4, err := wh.AnswerLocally(context.Background(), "catalog", workload.Query4())
	if err != nil {
		t.Fatal(err)
	}
	if la4.Fully {
		t.Error("Query 4 should not be fully answerable")
	}
	if !la4.CertainlyNonEmpty {
		t.Error("Query 4 certainly has answers (known cameras exist)")
	}
	// The partial local answer lists the known cameras.
	ids := la4.Exact.IDs()
	if !ids["canon"] || !ids["nikon"] || !ids["olympus"] {
		t.Error("local partial answer missing known cameras")
	}

	// Completing Query 4 contacts the source with local queries and returns
	// the exact answer.
	ca, err := wh.AnswerComplete(context.Background(), "catalog", workload.Query4())
	if err != nil {
		t.Fatal(err)
	}
	if ca.LocalQueries == 0 {
		t.Error("completion should have needed source access")
	}
	if ca.Degraded {
		t.Error("completion against a healthy source degraded")
	}
	want := workload.Query4().Eval(workload.PaperCatalog())
	if !ca.Answer.Equal(want) {
		t.Errorf("completed answer wrong:\n%s\nwant:\n%s", ca.Answer, want)
	}
}

func TestAnswerCompleteOnColdCache(t *testing.T) {
	wh, _ := newCatalogWebhouse(t)
	ca, err := wh.AnswerComplete(context.Background(), "catalog", workload.Query4())
	if err != nil {
		t.Fatal(err)
	}
	if ca.LocalQueries != 1 {
		t.Errorf("cold cache should pose exactly the query itself, asked %d", ca.LocalQueries)
	}
	want := workload.Query4().Eval(workload.PaperCatalog())
	if !ca.Answer.Equal(want) {
		t.Error("cold-cache answer wrong")
	}
}

func TestAnswerCompleteFindsHiddenProduct(t *testing.T) {
	// A product invisible to queries 1-2 must be fetched by the completion.
	wh, _ := exploredHiddenCamera(t, hiddenCameraCatalog())
	ca, err := wh.AnswerComplete(context.Background(), "catalog", workload.Query4())
	if err != nil {
		t.Fatal(err)
	}
	if ca.Answer.Find("leica") == nil {
		t.Errorf("hidden camera not retrieved:\n%s", ca.Answer)
	}
	// After completion the knowledge includes the new camera.
	know, _ := wh.Knowledge("catalog")
	if know.DataTree().Find("leica") == nil {
		t.Error("completion result not folded into the repository")
	}
}

func TestInvalidate(t *testing.T) {
	wh, src := newCatalogWebhouse(t)
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	// The source changes: drop a product and bump a price.
	newDoc := workload.CatalogDocument([]workload.Product{
		{ID: "canon", Name: 10, Price: 130, Subcat: workload.ValCamera},
	})
	if err := src.Update(newDoc); err != nil {
		t.Fatal(err)
	}
	if err := wh.Invalidate("catalog"); err != nil {
		t.Fatal(err)
	}
	know, _ := wh.Knowledge("catalog")
	if know.DataTree().Root != nil {
		t.Error("invalidate kept stale data")
	}
	if !know.Member(newDoc) {
		t.Error("reinitialized knowledge excludes the new document")
	}
	// Fresh exploration works against the new document.
	a, err := wh.Explore(context.Background(), "catalog", workload.Query1(200))
	if err != nil {
		t.Fatal(err)
	}
	if a.Answer.Find("canon.price") == nil || !a.Answer.Find("canon.price").Value.Equal(rat.FromInt(130)) {
		t.Error("post-update exploration returned stale price")
	}
}

func TestSourceUpdateValidation(t *testing.T) {
	_, src := newCatalogWebhouse(t)
	if err := src.Update(tree.Empty()); err == nil {
		t.Error("invalid update accepted")
	}
}

func TestExploreRecoversFromSourceChange(t *testing.T) {
	// The source changes between queries WITHOUT the webhouse being told:
	// the new answers contradict the accumulated knowledge and exploration
	// must transparently reinitialize (the paper's recovery strategy).
	wh, src := newCatalogWebhouse(t)
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	// Change Canon's price to 180 (still under 200, same node ids): the next
	// Query1 answer reports a different value for a known node.
	changed := workload.CatalogDocument([]workload.Product{
		{ID: "canon", Name: 10, Price: 180, Subcat: workload.ValCamera, Pictures: []int64{20}},
		{ID: "nikon", Name: 11, Price: 199, Subcat: workload.ValCamera},
	})
	if err := src.Update(changed); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatalf("exploration after source change failed: %v", err)
	}
	know, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if !know.Member(changed) {
		t.Error("knowledge excludes the new document after recovery")
	}
	price := know.DataTree().Find("canon.price")
	if price == nil || !price.Value.Equal(rat.FromInt(180)) {
		t.Error("stale price survived the recovery")
	}
}

// TestLossyFallbacksCountsDegradedFolds: LossyFallbacks counts the folds
// that went through the lossy fallback, not every later fold into the
// chain that one of them made lossy.
func TestLossyFallbacksCountsDegradedFolds(t *testing.T) {
	ctx := context.Background()
	wh, _ := newCatalogWebhouse(t)
	wh.SetBudget(1)
	if _, err := wh.Explore(ctx, "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	if r, _ := wh.Repo("catalog"); !r.refiner.Lossy() {
		t.Fatal("a one-step budget did not degrade the fold")
	}
	wh.SetBudget(0)
	for _, q := range []query.Query{workload.Query2(), workload.Query3(200), workload.Query4()} {
		if _, err := wh.Explore(ctx, "catalog", q); err != nil {
			t.Fatal(err)
		}
	}
	if got := wh.Stats().LossyFallbacks; got != 1 {
		t.Errorf("LossyFallbacks = %d after one degraded fold and three exact ones, want 1", got)
	}
}

func TestObserveInconsistencyKeepsState(t *testing.T) {
	// At the refiner level the inconsistent observation is rejected and the
	// previous state preserved.
	wh, _ := newCatalogWebhouse(t)
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	r, _ := wh.Repo("catalog")
	before, _ := r.Source.Served()
	_ = before
	know1, _ := wh.Knowledge("catalog")
	size1 := know1.Size()
	// Feed a contradictory answer by hand: Canon at a different price.
	badAnswer := workload.Query1(200).Eval(workload.CatalogDocument([]workload.Product{
		{ID: "canon", Name: 10, Price: 130, Subcat: workload.ValCamera},
	}))
	err := r.refiner.Observe(workload.Query1(200), badAnswer)
	if err == nil {
		t.Fatal("contradictory observation accepted")
	}
	know2, _ := wh.Knowledge("catalog")
	if know2.Size() != size1 {
		t.Error("failed observation mutated the knowledge")
	}
}

// selfContradictingClient answers every ps-query with a catalog whose one
// product has two name children, which the catalog type forbids: the answer
// contradicts the source type by itself, so neither the accumulated nor a
// fresh knowledge can absorb it.
type selfContradictingClient struct{ faulty.Direct }

func (selfContradictingClient) Ask(context.Context, query.Query) (tree.Tree, error) {
	return twoNameCatalog(), nil
}

func twoNameCatalog() tree.Tree {
	return tree.Tree{Root: tree.NewID("c0", "catalog", rat.Zero,
		tree.NewID("bad", "product", rat.Zero,
			tree.NewID("bad.name", "name", rat.FromInt(1)),
			tree.NewID("bad.name2", "name", rat.FromInt(2)),
			tree.NewID("bad.price", "price", rat.FromInt(100)),
			tree.NewID("bad.cat", "cat", rat.FromInt(workload.ValElec),
				tree.NewID("bad.sub", "subcat", rat.FromInt(workload.ValCamera)))))}
}

// recordingJournal counts the events it is handed.
type recordingJournal struct{ events int }

func (j *recordingJournal) Record(JournalEvent) { j.events++ }

// TestFailedRefoldKeepsKnowledge checks the recovery path when the re-fold
// into a fresh refiner fails too: the error is returned, the knowledge (and
// its snapshot) is the one from before, nothing is journaled, and the local
// answer still agrees with that knowledge. Live exploration and journal
// replay share the path.
func TestFailedRefoldKeepsKnowledge(t *testing.T) {
	ctx := context.Background()
	wh, src := newCatalogWebhouse(t)
	if _, err := wh.Explore(ctx, "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	q := workload.Query3(100)
	if la, err := wh.AnswerLocally(ctx, "catalog", q); err != nil || !la.Fully {
		t.Fatalf("Query 3 not fully answerable before the failed fold: %+v, %v", la, err)
	}
	know, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	wh.SetJournal(j)
	if err := wh.SetClient("catalog", selfContradictingClient{faulty.NewDirect(src)}); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.Explore(ctx, "catalog", workload.Query1(200)); !errors.Is(err, refine.ErrInconsistent) {
		t.Fatalf("Explore of a self-contradicting answer: err = %v, want ErrInconsistent", err)
	}
	if err := wh.ReplayObserve("catalog", workload.Query1(200), twoNameCatalog()); !errors.Is(err, refine.ErrInconsistent) {
		t.Fatalf("ReplayObserve of a self-contradicting answer: err = %v, want ErrInconsistent", err)
	}
	if got, err := wh.Knowledge("catalog"); err != nil || got != know {
		t.Fatalf("a failed fold replaced the knowledge (size %d -> %d)", know.Size(), got.Size())
	}
	if j.events != 0 {
		t.Errorf("a failed fold journaled %d events", j.events)
	}
	la, err := wh.AnswerLocally(ctx, "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := wh.computeLocal(ctx, know.Clone(), q)
	if err != nil {
		t.Fatal(err)
	}
	if la.FullyV != want.FullyV || !la.Exact.Equal(want.Exact) {
		t.Errorf("local answer (fully %v) disagrees with the knowledge (fully %v)", la.FullyV, want.FullyV)
	}
}
