package webhouse

import (
	"context"
	"fmt"
	"sync"
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

	// A full answer cache stops storing: it still serves correct answers,
	// computed on every call, and its length stays at the bound.
	want, err := wh.AnswerLocally(context.Background(), "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := wh.Repo("catalog")
	if err != nil {
		t.Fatal(err)
	}
	r.invalidate()
	gen := r.gen.Load()
	for i := 0; len(r.answers) < itree.MemoLimit; i++ {
		r.storeLocal(gen, fmt.Sprintf("filler%d", i), &LocalAnswer{})
	}
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
	if n := len(r.answers); n != itree.MemoLimit {
		t.Errorf("full cache grew to %d entries, bound %d", n, itree.MemoLimit)
	}
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

	// A full extended-answer cache keeps answering, uncached, at its bound.
	r, err := wh.Repo("catalog")
	if err != nil {
		t.Fatal(err)
	}
	r.invalidate()
	gen := r.gen.Load()
	for i := 0; len(r.ext) < itree.MemoLimit; i++ {
		r.storeExt(gen, fmt.Sprintf("filler%d", i), &ExtendedAnswer{})
	}
	for i := 0; i < 2; i++ {
		before := wh.Stats()
		a3, err := wh.AnswerExtended(context.Background(), "catalog", q)
		if err != nil {
			t.Fatal(err)
		}
		if wh.Stats().AnswerCacheMisses != before.AnswerCacheMisses+1 {
			t.Errorf("full cache: call %d was not computed", i)
		}
		if !a3.Known.Equal(a2.Known) || a3.ExactV != a2.ExactV {
			t.Errorf("full cache: call %d answered %+v, want %+v", i, a3, a2)
		}
	}
	if n := len(r.ext); n != itree.MemoLimit {
		t.Errorf("full extended cache grew to %d entries, bound %d", n, itree.MemoLimit)
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
// snapshot. Over one generation, concurrent local, complete and extended
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
	gen := r.gen.Load()
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
			return fmt.Errorf("Knowledge returned a new tree within one generation")
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
	if r.gen.Load() != gen {
		t.Fatal("a read changed the generation; the hammer must stay on one snapshot")
	}
	if err := sameSnapshot(); err != nil {
		t.Error(err)
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
	fresh := refine.Compact(refine.WithTreeType(r.Refiner().Tree(), r.Source.Type))
	if next.String() != fresh.String() || next.MayBeEmpty != fresh.MayBeEmpty {
		t.Error("the snapshot after Explore differs from a freshly computed reachable tree")
	}
}
