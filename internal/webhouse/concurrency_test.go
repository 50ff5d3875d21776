package webhouse

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/itree"
	"incxml/internal/refine"
	"incxml/internal/workload"
)

// TestAnswerCacheHitAndEviction checks the acceptance criterion directly:
// a repeated AnswerLocally on an unchanged source is an observable cache
// hit, and each of Explore, Update and Invalidate evicts.
func TestAnswerCacheHitAndEviction(t *testing.T) {
	wh, _ := newCatalogWebhouse(t)
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	q := workload.Query3(100)

	ask := func() Stats {
		t.Helper()
		if _, err := wh.AnswerLocally(context.Background(), "catalog", q); err != nil {
			t.Fatal(err)
		}
		return wh.Stats()
	}

	s1 := ask()
	s2 := ask()
	if s2.AnswerCacheHits != s1.AnswerCacheHits+1 {
		t.Fatalf("repeat AnswerLocally not a cache hit: %+v -> %+v", s1, s2)
	}

	evictors := []struct {
		name string
		run  func() error
	}{
		{"Explore", func() error {
			_, err := wh.Explore(context.Background(), "catalog", workload.Query2())
			return err
		}},
		{"Invalidate", func() error { return wh.Invalidate("catalog") }},
		{"Update", func() error {
			return wh.Update("catalog", workload.PaperCatalog())
		}},
	}
	for _, ev := range evictors {
		ask() // warm
		before := ask()
		if err := ev.run(); err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		after := ask()
		if after.AnswerCacheMisses != before.AnswerCacheMisses+1 {
			t.Errorf("%s did not evict the answer cache: %+v -> %+v",
				ev.name, before, after)
		}
	}

	// A full snapshot memo stops storing: it still serves correct answers,
	// computed on every call.
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	want, err := wh.AnswerLocally(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	know := fullMemoSnapshot(t, wh)
	for i := 0; i < 2; i++ {
		before := wh.Stats()
		la, err := wh.AnswerLocally(context.Background(), "catalog", q)
		if err != nil {
			t.Fatal(err)
		}
		if wh.Stats().AnswerCacheMisses != before.AnswerCacheMisses+1 {
			t.Errorf("full cache: call %d was not computed", i)
		}
		if !la.Exact.Equal(want.Exact) || la.FullyV != want.FullyV ||
			la.CertainlyNonEmptyV != want.CertainlyNonEmptyV || la.PossiblyNonEmptyV != want.PossiblyNonEmptyV {
			t.Errorf("full cache: call %d answered %+v, want %+v", i, la, want)
		}
	}
	if _, ok := know.Recall(itree.MemoLocal, q.String()); ok {
		t.Error("full memo stored the answer past itree.MemoLimit")
	}
}

// fullMemoSnapshot gives the repository a new knowledge snapshot that
// represents the same documents as the current one, whose only observation
// is Query1(200): it invalidates the knowledge and folds Query1(200) into
// the pristine refiner again. That fold is informative, so it installs a
// fresh snapshot (refolding Query1(200) into knowledge that already holds it
// would be redundant and keep the old one). It fills the new snapshot's memo
// to itree.MemoLimit with filler entries.
func fullMemoSnapshot(t *testing.T, wh *Webhouse) *itree.T {
	t.Helper()
	before, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.Invalidate("catalog"); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	if know, _ := wh.Knowledge("catalog"); know == before {
		t.Fatal("the fold kept the old knowledge snapshot")
	}
	know, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < itree.MemoLimit; i++ {
		know.Remember(itree.MemoLocal, fmt.Sprintf("filler%d", i), &LocalAnswer{})
	}
	return know
}

func TestAnswerExtendedCached(t *testing.T) {
	wh, _ := newCatalogWebhouse(t)
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	q := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True()))}
	if _, err := wh.AnswerExtended(context.Background(), "catalog", q); err != nil {
		t.Fatal(err)
	}
	before := wh.Stats()
	a1, err := wh.AnswerExtended(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	after := wh.Stats()
	if after.AnswerCacheHits != before.AnswerCacheHits+1 {
		t.Fatalf("repeat AnswerExtended not a cache hit: %+v -> %+v", before, after)
	}
	if err := wh.Invalidate("catalog"); err != nil {
		t.Fatal(err)
	}
	a2, err := wh.AnswerExtended(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	// After invalidation the knowledge is the bare type: the answer shrinks.
	if a1.Known.Size() != 0 && a2.Known.Size() == a1.Known.Size() && wh.Stats().AnswerCacheMisses == after.AnswerCacheMisses {
		t.Error("Invalidate did not evict the extended-answer cache")
	}

	// A full snapshot memo keeps answering, without storing.
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	want, err := wh.AnswerExtended(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	know := fullMemoSnapshot(t, wh)
	for i := 0; i < 2; i++ {
		before := wh.Stats()
		a3, err := wh.AnswerExtended(context.Background(), "catalog", q)
		if err != nil {
			t.Fatal(err)
		}
		if wh.Stats().AnswerCacheMisses != before.AnswerCacheMisses+1 {
			t.Errorf("full cache: call %d was not computed", i)
		}
		if !a3.Known.Equal(want.Known) || a3.ExactV != want.ExactV {
			t.Errorf("full cache: call %d answered %+v, want %+v", i, a3, want)
		}
	}
	if _, ok := know.Recall(itree.MemoExtended, extKey(q)); ok {
		t.Error("full memo stored the answer past itree.MemoLimit")
	}
}

// TestConcurrentServing hammers one webhouse from many goroutines mixing
// reads (AnswerLocally, AnswerExtended, Knowledge, Sources) with writes
// (Explore, Invalidate, Update). Run under -race this is the serving
// layer's thread-safety proof; without -race it still checks that answers
// remain well-formed under contention.
func TestConcurrentServing(t *testing.T) {
	wh, _ := newCatalogWebhouse(t)
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	queries := []func() error{
		func() error {
			_, err := wh.AnswerLocally(context.Background(), "catalog", workload.Query3(100))
			return err
		},
		func() error {
			_, err := wh.AnswerLocally(context.Background(), "catalog", workload.Query1(150))
			return err
		},
		func() error {
			q := extquery.Query{Root: extquery.N("catalog", cond.True())}
			_, err := wh.AnswerExtended(context.Background(), "catalog", q)
			return err
		},
		func() error {
			_, err := wh.Knowledge("catalog")
			return err
		},
		func() error {
			if got := wh.Sources(); len(got) != 1 {
				return fmt.Errorf("Sources = %v", got)
			}
			return nil
		},
		func() error {
			_, err := wh.Explore(context.Background(), "catalog", workload.Query2())
			return err
		},
		func() error { return wh.Invalidate("catalog") },
		func() error {
			return wh.Update("catalog", workload.PaperCatalog())
		},
		func() error {
			_, err := wh.AnswerComplete(context.Background(), "catalog", workload.Query3(100))
			return err
		},
	}
	const goroutines = 12
	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := queries[(g+i)%len(queries)](); err != nil {
					errc <- fmt.Errorf("goroutine %d round %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The answers must still be correct after the storm.
	if err := wh.Invalidate("catalog"); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	la, err := wh.AnswerLocally(context.Background(), "catalog", workload.Query3(100))
	if err != nil {
		t.Fatal(err)
	}
	if !la.Fully {
		t.Error("Query 3 no longer fully answerable after concurrent storm")
	}
	hammerSharedSnapshot(t, wh)
}

// hammerSharedSnapshot pins the immutability of the memoized knowledge
// snapshot. Between two folds, concurrent local, complete and extended
// answers plus the shard scatter's per-source work (a local answer and a
// certify.Merge over the Knowledge snapshot; shard imports this package, so
// shard's TestScatterSharesKnowledgeSnapshot hammers the scatter itself)
// all read one shared tree: Knowledge must return the same pointer with
// unchanged content until an Explore, and the next snapshot must equal
// a freshly computed reachable tree.
func hammerSharedSnapshot(t *testing.T, wh *Webhouse) {
	t.Helper()
	ctx := context.Background()
	r, err := wh.Repo("catalog")
	if err != nil {
		t.Fatal(err)
	}
	know, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's content, to check that no reader moved it.
	content, mayBeEmpty := know.String(), know.MayBeEmpty
	sameSnapshot := func() error {
		got, err := wh.Knowledge("catalog")
		if err != nil {
			return err
		}
		if got != know {
			return fmt.Errorf("Knowledge returned a new tree without a fold")
		}
		return nil
	}
	reads := []func(k int) error{
		func(k int) error {
			// A distinct bound per call misses the answer cache, so every
			// call builds q(T) on the shared tree.
			_, err := wh.AnswerLocally(ctx, "catalog", workload.Query1(int64(100+k)))
			return err
		},
		func(int) error {
			_, err := wh.AnswerComplete(ctx, "catalog", workload.Query3(100))
			return err
		},
		func(k int) error {
			q := extquery.Query{Root: extquery.N("catalog", cond.True(),
				extquery.N("product", cond.LtInt(int64(k))))}
			_, err := wh.AnswerExtended(ctx, "catalog", q)
			return err
		},
		func(int) error {
			q := workload.Query4()
			la, err := wh.AnswerLocally(ctx, "catalog", q)
			if err != nil {
				return err
			}
			if err := sameSnapshot(); err != nil {
				return err
			}
			certify.Merge(q, map[string]*certify.Certificate{"catalog": la.Certificate},
				map[string]*itree.T{"catalog": know}, budget.New(ctx, 1<<20))
			return nil
		},
		func(int) error { return sameSnapshot() },
	}
	const goroutines = 8
	const rounds = 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := reads[(g+i)%len(reads)](g*rounds + i); err != nil {
					errc <- fmt.Errorf("goroutine %d round %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := sameSnapshot(); err != nil {
		t.Fatal(err)
	}
	if know.String() != content || know.MayBeEmpty != mayBeEmpty {
		t.Error("the shared knowledge snapshot was mutated by a reader")
	}

	if _, err := wh.Explore(ctx, "catalog", workload.Query2()); err != nil {
		t.Fatal(err)
	}
	next, err := wh.Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if next == know {
		t.Error("Explore did not replace the knowledge snapshot")
	}
	if know.String() != content || know.MayBeEmpty != mayBeEmpty {
		t.Error("Explore mutated the previous snapshot")
	}
	fresh := refine.Compact(refine.WithTreeType(r.refiner.Tree(), r.Source.Type))
	if next.String() != fresh.String() || next.MayBeEmpty != fresh.MayBeEmpty {
		t.Error("the snapshot after Explore differs from a freshly computed reachable tree")
	}
}

// Answers memoized on a knowledge snapshot belong to it. Readers hammer
// AnswerLocally and AnswerExtended while a writer alternates Explore and
// Invalidate. Whenever Knowledge returns the same snapshot before and after
// a read, the answer read must equal one computed afresh on that snapshot:
// an answer computed on one snapshot but stored on, or served from, another
// fails this. The writer moves between two knowledge states, bare and
// explored, which answer both queries differently; the fresh answers of
// each are computed once, on an unmarked Clone, before the hammer starts.
// The certified answers are checked the same way: on the explored state a
// reader's AnswerComplete of the explored query, and every Explore of the
// writer, must serve q(data(T)) and its certify.Exact certificate.
func TestMemoizedAnswersMatchTheirSnapshot(t *testing.T) {
	wh, _ := newCatalogWebhouse(t)
	ctx := context.Background()
	lq := workload.Query3(100)
	eq := extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True()))}
	type fresh struct {
		local *LocalAnswer
		ext   *ExtendedAnswer
	}
	var want [2]fresh // by explored
	cq := workload.Query1(200)
	var exact *ExactAnswer // fresh on the explored state
	for i := range want {
		if i == 1 {
			if _, err := wh.Explore(ctx, "catalog", workload.Query1(200)); err != nil {
				t.Fatal(err)
			}
		}
		know, err := wh.Knowledge("catalog")
		if err != nil {
			t.Fatal(err)
		}
		if want[i].local, _, _, err = wh.computeLocal(ctx, know.Clone(), lq); err != nil {
			t.Fatal(err)
		}
		if want[i].ext, err = wh.computeExtended(ctx, know.Clone(), eq); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			a := cq.Eval(know.Clone().DataTree())
			exact = &ExactAnswer{Answer: a, Certificate: certify.Exact(cq, a)}
		}
	}
	sameExact := func(ex *ExactAnswer) error {
		if !ex.Answer.Equal(exact.Answer) || !reflect.DeepEqual(ex.Certificate, exact.Certificate) {
			return fmt.Errorf("certified answer %v %+v, fresh %v %+v", ex.Answer, ex.Certificate, exact.Answer, exact.Certificate)
		}
		return nil
	}
	if want[0].local.FullyV == want[1].local.FullyV || want[0].ext.Known.Equal(want[1].ext.Known) {
		t.Fatal("the two knowledge states answer alike: the test would see no stale answer")
	}

	var checked, certifiedChecked atomic.Int64
	read := func(complete bool) error {
		before, err := wh.Knowledge("catalog")
		if err != nil {
			return err
		}
		la, err := wh.AnswerLocally(ctx, "catalog", lq)
		if err != nil {
			return err
		}
		ea, err := wh.AnswerExtended(ctx, "catalog", eq)
		if err != nil {
			return err
		}
		var ca *CompleteAnswer
		if complete && before.DataTree().Root != nil {
			// Certified on the explored state; should the writer reset it
			// meanwhile, the completion folds cq and the check is skipped.
			// Only one reader completes, so that these folds do not cut
			// the bare state short for the others.
			if ca, err = wh.AnswerComplete(ctx, "catalog", cq); err != nil {
				return err
			}
		}
		if after, err := wh.Knowledge("catalog"); err != nil || after != before {
			return err // a nil error: the snapshot moved, so this read is not checked
		}
		w := want[0]
		if before.DataTree().Root != nil {
			w = want[1]
		}
		if !la.Exact.Equal(w.local.Exact) || la.FullyV != w.local.FullyV ||
			la.CertainlyNonEmptyV != w.local.CertainlyNonEmptyV || la.PossiblyNonEmptyV != w.local.PossiblyNonEmptyV {
			return fmt.Errorf("local answer %+v, fresh on its snapshot %+v", la, w.local)
		}
		if !ea.Known.Equal(w.ext.Known) || ea.ExactV != w.ext.ExactV {
			return fmt.Errorf("extended answer %+v, fresh on its snapshot %+v", ea, w.ext)
		}
		if ca != nil {
			if ca.LocalQueries != 0 {
				return fmt.Errorf("the explored state did not certify %v", cq)
			}
			if err := sameExact(&ExactAnswer{Answer: ca.Answer, Certificate: ca.Certificate}); err != nil {
				return err
			}
			certifiedChecked.Add(1)
		}
		checked.Add(1)
		return nil
	}

	stop := make(chan struct{})
	var explored []*ExactAnswer // the writer's, checked once it stopped
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = wh.Invalidate("catalog")
			} else {
				var ex *ExactAnswer
				ex, err = wh.Explore(ctx, "catalog", cq)
				explored = append(explored, ex)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const readers, rounds = 4, 400
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := read(g == 0); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	for _, ex := range explored {
		if err := sameExact(ex); err != nil {
			t.Error(err)
			break
		}
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// Quiescent, every read checks: at least one comparison always runs.
	if err := read(true); err != nil {
		t.Error(err)
	}
	t.Logf("%d reads compared against their snapshot, %d with a certified answer", checked.Load(), certifiedChecked.Load())
}
