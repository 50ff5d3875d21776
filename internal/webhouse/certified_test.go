package webhouse

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/workload"
)

// recallCertified returns the certified answer memoized on know for q, or
// nil.
func recallCertified(know *itree.T, q query.Query) *ExactAnswer {
	if v, ok := know.Recall(itree.MemoCertified, q.String()); ok {
		return v.(*ExactAnswer)
	}
	return nil
}

// freshExact fails t unless ex is the exact answer to q computed afresh on
// know: q(data(T)) and its certify.Exact certificate.
func freshExact(t *testing.T, know *itree.T, q query.Query, ex *ExactAnswer) {
	t.Helper()
	want := q.Eval(know.DataTree())
	if !ex.Answer.Equal(want) {
		t.Errorf("certified answer %v, fresh q(data(T)) %v", ex.Answer, want)
	}
	if cert := certify.Exact(q, want); !reflect.DeepEqual(ex.Certificate, cert) {
		t.Errorf("certificate %+v, fresh certify.Exact %+v", ex.Certificate, cert)
	}
}

// TestCertifiedAnswerSharedPerSnapshot: on one knowledge snapshot, a
// certified AnswerComplete, a redundant Explore and a redundant fold all
// serve the one certified answer memoized on it, certificate pointer
// included, and that answer is the fresh one.
func TestCertifiedAnswerSharedPerSnapshot(t *testing.T) {
	ctx := context.Background()
	wh, _ := newCatalogWebhouse(t)
	q := workload.Query1(200)
	first, err := wh.Explore(ctx, "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	know, _ := wh.Knowledge("catalog")
	if recallCertified(know, q) != nil {
		t.Fatal("an informative fold stored a certified answer on its new snapshot")
	}
	ca, err := wh.AnswerComplete(ctx, "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	entry := recallCertified(know, q)
	if entry == nil || ca.LocalQueries != 0 {
		t.Fatalf("the certified completion stored no entry (local queries %d)", ca.LocalQueries)
	}
	again, err := wh.Explore(ctx, "catalog", q)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := wh.Repo("catalog")
	r.mu.Lock()
	folded, _, err := r.foldLocked(q, first.Answer, func() *budget.B { return nil })
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := wh.Knowledge("catalog"); got != know {
		t.Fatal("a redundant observation replaced the snapshot")
	}
	for name, cert := range map[string]*certify.Certificate{
		"/complete": ca.Certificate, "redundant /explore": again.Certificate, "redundant fold": folded.Certificate,
	} {
		if cert != entry.Certificate {
			t.Errorf("%s served a certificate other than the snapshot's entry", name)
		}
	}
	if again != entry || folded != entry {
		t.Error("a redundant observation did not return the snapshot's entry")
	}
	if !again.Answer.Equal(first.Answer) || !reflect.DeepEqual(again.Certificate, first.Certificate) {
		t.Error("the redundant exploration's answer differs from the source's")
	}
	freshExact(t, know, q, entry)
}

// TestCertifiedUnknownStoresNothing: a budget-exhausted verdict is no
// certificate, so certified stores nothing; the exact verdict then does.
func TestCertifiedUnknownStoresNothing(t *testing.T) {
	ctx := context.Background()
	wh, _ := newCatalogWebhouse(t)
	q := workload.Query1(200)
	if _, err := wh.Explore(ctx, "catalog", q); err != nil {
		t.Fatal(err)
	}
	know, _ := wh.Knowledge("catalog")
	ex, err := certified(know, q, budget.New(ctx, 1))
	if ex != nil || !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("one step decided the query: %v, %v", ex, err)
	}
	if recallCertified(know, q) != nil {
		t.Fatal("a budget-exhausted Unknown stored a certified answer")
	}
	if ex, err = certified(know, q, nil); ex == nil || err != nil {
		t.Fatalf("the exact verdict did not certify the query: %v", err)
	}
	if recallCertified(know, q) != ex {
		t.Error("the exact verdict's answer was not stored")
	}
}

// TestCertifiedEntryPerSnapshot: an informative fold, an Invalidate and an
// Update each start a new snapshot, so the next certified answer is a fresh
// entry built on it, never the old snapshot's.
func TestCertifiedEntryPerSnapshot(t *testing.T) {
	ctx := context.Background()
	wh, src := newCatalogWebhouse(t)
	q := workload.Query1(200)
	if _, err := wh.Explore(ctx, "catalog", q); err != nil {
		t.Fatal(err)
	}
	seen := map[*certify.Certificate]string{}
	check := func(after string) {
		t.Helper()
		ca, err := wh.AnswerComplete(ctx, "catalog", q)
		if err != nil {
			t.Fatal(err)
		}
		if ca.LocalQueries != 0 { // not certified yet: the completion folded q
			if ca, err = wh.AnswerComplete(ctx, "catalog", q); err != nil {
				t.Fatal(err)
			}
		}
		know, _ := wh.Knowledge("catalog")
		entry := recallCertified(know, q)
		if entry == nil || ca.Certificate != entry.Certificate {
			t.Fatalf("after %s: the certified completion did not serve its snapshot's entry", after)
		}
		if prev, ok := seen[entry.Certificate]; ok {
			t.Errorf("after %s: served the entry of the snapshot after %s", after, prev)
		}
		seen[entry.Certificate] = after
		freshExact(t, know, q, entry)
	}
	check("the first exploration")
	if _, err := wh.Explore(ctx, "catalog", workload.Query2()); err != nil {
		t.Fatal(err)
	}
	check("an informative fold")
	if err := wh.Invalidate("catalog"); err != nil {
		t.Fatal(err)
	}
	check("Invalidate")
	if err := wh.Update("catalog", src.Doc()); err != nil {
		t.Fatal(err)
	}
	check("Update")
}
