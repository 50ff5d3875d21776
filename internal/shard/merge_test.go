package shard

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

// directMerge is certify.Merge over the snapshots and certificates the
// scatter's answers came from: what the memoized merge must equal.
func directMerge(q query.Query, s *Scatter) *certify.Certificate {
	perSource := map[string]*certify.Certificate{}
	knows := map[string]*itree.T{}
	for _, sa := range s.Answers {
		perSource[sa.Source] = sa.Certificate()
		if know := sa.Knowledge(); know != nil {
			knows[sa.Source] = know
		}
	}
	return certify.Merge(q, perSource, knows, budget.New(context.Background(), mergeFallbackSteps))
}

func scatterLocal(t *testing.T, c *Cluster, q query.Query) *Scatter {
	t.Helper()
	s, err := c.ScatterLocal(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Two scatters on unchanged snapshots share one merged certificate; a fold,
// an Invalidate or an Update on any one source gives a fresh one, equal to
// a direct certify.Merge over the new answers.
func TestMergedCertificatePerSnapshotSet(t *testing.T) {
	c, worlds := fixture(t, Config{Shards: 2, Retry: fastRetry}, 4)
	warm(t, c)
	q := workload.Query1(200).Keyed()
	first := scatterLocal(t, c, q)
	if first.Certificate.Exhausted {
		t.Fatal("the fixture's merge exhausted its budget")
	}
	if again := scatterLocal(t, c, q); again.Certificate != first.Certificate {
		t.Error("a scatter on unchanged snapshots merged afresh")
	}
	if !reflect.DeepEqual(first.Certificate, directMerge(q, first)) {
		t.Error("the merged certificate differs from a direct Merge")
	}
	srcs := c.Sources()
	changes := []struct {
		name   string
		change func() error
	}{
		{"fold", func() error {
			_, err := c.Explore(context.Background(), srcs[1], workload.Query4())
			return err
		}},
		{"invalidate", func() error { return c.Invalidate(srcs[2]) }},
		{"update", func() error { return c.Update(srcs[3], worlds[srcs[0]]) }},
	}
	prev := first.Certificate
	for _, ch := range changes {
		if err := ch.change(); err != nil {
			t.Fatalf("%s: %v", ch.name, err)
		}
		s := scatterLocal(t, c, q)
		if s.Certificate == prev {
			t.Errorf("%s: the scatter reused the merge of the old snapshots", ch.name)
		}
		if want := directMerge(q, s); !reflect.DeepEqual(s.Certificate, want) {
			t.Errorf("%s: merged %+v, direct Merge %+v", ch.name, s.Certificate, want)
		}
		if again := scatterLocal(t, c, q); again.Certificate != s.Certificate {
			t.Errorf("%s: the fresh merge was not memoized", ch.name)
		}
		prev = s.Certificate
	}
}

// A merge with a dead source, or one whose budget ran out, is not stored.
func TestMergeStoresOnlyCompleteMerges(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 2, Retry: fastRetry}, 3)
	warm(t, c)
	q := workload.Query4().Keyed()
	live := scatterLocal(t, c, q).Answers
	first := live[0].Knowledge()

	dead := append([]SourceAnswer(nil), live...)
	dead[len(dead)-1] = SourceAnswer{Source: dead[len(dead)-1].Source, Err: errors.New("shard lost")}
	// Drop what the live scatter stored, so a store below would show.
	first.Remember(itree.MemoScatter, q.String(), &mergedCertificate{})
	if cert := c.merge(context.Background(), q, dead); cert.Verdict != certify.Unknown {
		t.Errorf("merge with a dead source: verdict %s", cert.Verdict)
	}
	if v, _ := first.Recall(itree.MemoScatter, q.String()); v.(*mergedCertificate).cert != nil {
		t.Error("a merge with a dead source was stored")
	}

	// A contributor whose certification ran out of budget exhausts the
	// merge.
	exhausted := append([]SourceAnswer(nil), live...)
	la := *exhausted[1].Local
	cert := *la.Certificate
	cert.Exhausted = true
	la.Certificate = &cert
	exhausted[1].Local = &la
	if merged := c.merge(context.Background(), q, exhausted); !merged.Exhausted {
		t.Fatal("a merge over an exhausted certificate did not exhaust")
	}
	if v, _ := first.Recall(itree.MemoScatter, q.String()); v.(*mergedCertificate).cert != nil {
		t.Error("an exhausted merge was stored")
	}
}

// A snapshot change between the fan-out and the merge must not mix
// snapshots: the scatter's certificate is the Merge over the snapshots its
// answers were computed from, not over the newer one.
func TestMergeUsesTheAnswersSnapshots(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 2, Retry: fastRetry}, 3)
	warm(t, c)
	q := workload.Query4().Keyed()
	target := c.Sources()[0]
	before, err := c.Knowledge(target)
	if err != nil {
		t.Fatal(err)
	}
	testHookBeforeMerge = func() {
		testHookBeforeMerge = nil
		if err := c.Invalidate(target); err != nil {
			t.Error(err)
		}
	}
	defer func() { testHookBeforeMerge = nil }()
	s := scatterLocal(t, c, q)
	after, _ := c.Knowledge(target)
	if after == before {
		t.Fatal("the hook's fold did not replace the snapshot")
	}
	for _, sa := range s.Answers {
		if sa.Source == target && sa.Knowledge() != before {
			t.Fatalf("the answer of %s does not carry the snapshot it was computed on", target)
		}
	}
	want := directMerge(q, s)
	if !reflect.DeepEqual(s.Certificate, want) {
		t.Errorf("merged %+v, Merge over the answers' snapshots %+v", s.Certificate, want)
	}
	// The check above can only fail if the newer snapshot changes the merge.
	perSource := map[string]*certify.Certificate{}
	knows := map[string]*itree.T{}
	for _, sa := range s.Answers {
		perSource[sa.Source], knows[sa.Source] = sa.Certificate(), sa.Knowledge()
	}
	knows[target] = after
	if stale := certify.Merge(q, perSource, knows, budget.New(context.Background(), mergeFallbackSteps)); reflect.DeepEqual(stale, want) {
		t.Fatal("the invalidation does not change the merge: the test cannot tell the snapshots apart")
	}
}
