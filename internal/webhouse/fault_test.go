// Fault-injection suite for the serving layer: soundness under transient
// source failures, graceful degradation during outages, deadline
// propagation, and the concurrency regressions fixed alongside (source
// evaluation outside the lock, atomic invalidate, shared global caches).
package webhouse

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"incxml/internal/faulty"
	"incxml/internal/mediator"
	"incxml/internal/query"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// fastRetry is a RetryConfig with sub-millisecond backoff so fault tests
// run quickly while still exercising the retry loop.
func fastRetry(seed int64) faulty.RetryConfig {
	return faulty.RetryConfig{
		MaxAttempts: 6,
		BaseDelay:   50 * time.Microsecond,
		MaxDelay:    time.Millisecond,
		Seed:        seed,
	}
}

// flakyCatalog builds a webhouse over doc whose source access goes through
// an Injector (transient failures at failRate) behind a RetryClient.
func flakyCatalog(t *testing.T, doc tree.Tree, failRate float64, seed int64) (*Webhouse, *Source, *faulty.Injector, *faulty.RetryClient) {
	t.Helper()
	src, err := NewSource("catalog", workload.CatalogType(), doc)
	if err != nil {
		t.Fatal(err)
	}
	wh := New()
	wh.Register(src)
	inj := faulty.NewInjector(src.Name, src, faulty.InjectorConfig{FailRate: failRate, Seed: seed})
	client := faulty.NewRetryClient(inj, fastRetry(seed))
	if err := wh.SetClient(src.Name, client); err != nil {
		t.Fatal(err)
	}
	return wh, src, inj, client
}

// mustExplore retries Explore past the (rare) runs of transient failures
// that exhaust even the retry client.
func mustExplore(t *testing.T, wh *Webhouse, q query.Query) {
	t.Helper()
	for i := 0; ; i++ {
		_, err := wh.Explore(context.Background(), "catalog", q)
		if err == nil {
			return
		}
		if !errors.Is(err, faulty.ErrUnavailable) {
			t.Fatal(err)
		}
		if i >= 50 {
			t.Fatalf("explore kept failing after %d rounds: %v", i, err)
		}
	}
}

// assertSubsetOf fails unless every node of a also occurs in want — a
// degraded answer must be a lower approximation of the truth, never invent.
func assertSubsetOf(t *testing.T, a, want tree.Tree, what string) {
	t.Helper()
	ids := want.IDs()
	a.Walk(func(n *tree.Node) {
		if !ids[n.ID] {
			t.Errorf("%s: node %s not part of the true answer", what, n.ID)
		}
	})
}

// The headline suite: with every source call failing transiently 30% of
// the time, concurrent serving must stay sound — exact answers when the
// retries win, flagged lower approximations when they do not, never a
// wrong answer. Run under -race this also exercises the injector, the
// retry client, and the repository locking concurrently.
func TestServingSoundUnderTransientFaults(t *testing.T) {
	doc := workload.PaperCatalog()
	truth := workload.Query4().Eval(doc)
	src, err := NewSource("catalog", workload.CatalogType(), doc)
	if err != nil {
		t.Fatal(err)
	}
	inj := faulty.NewInjector(src.Name, src, faulty.InjectorConfig{FailRate: 0.3, Seed: 7})
	client := faulty.NewRetryClient(inj, fastRetry(7))

	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	exact, degradedN := 0, 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// A fresh webhouse per round keeps the completion path hot;
				// the source, injector and retry client are shared, so the
				// fault machinery itself serves concurrently.
				wh := New()
				wh.Register(src)
				if err := wh.SetClient(src.Name, client); err != nil {
					t.Error(err)
					return
				}
				mustExplore(t, wh, workload.Query1(200))
				ca, err := wh.AnswerComplete(context.Background(), "catalog", workload.Query4())
				if err != nil {
					// Source errors degrade rather than surface; anything
					// else is a real bug.
					t.Errorf("worker %d round %d: %v", w, i, err)
					continue
				}
				if ca.Degraded {
					if !errors.Is(ca.Cause, faulty.ErrUnavailable) {
						t.Errorf("degraded without unavailability cause: %v", ca.Cause)
					}
					if ca.Local == nil || !ca.Possible.Member(truth) {
						t.Error("degraded answer excludes the true answer from the possible set")
					}
					assertSubsetOf(t, ca.Answer, truth, "degraded answer")
					mu.Lock()
					degradedN++
					mu.Unlock()
					continue
				}
				if !ca.Answer.Equal(truth) {
					t.Errorf("worker %d round %d: wrong exact answer:\n%s\nwant:\n%s", w, i, ca.Answer, truth)
				}
				mu.Lock()
				exact++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if exact == 0 {
		t.Error("no round produced an exact answer despite retries")
	}
	st := client.Stats()
	if st.Retries == 0 {
		t.Error("30% fault rate produced no retries")
	}
	if st.Attempts <= st.Retries {
		t.Errorf("attempt accounting broken: %+v", st)
	}
	t.Logf("exact=%d degraded=%d stats=%+v injector: %d calls %d failures",
		exact, degradedN, st, inj.Calls(), inj.Failures())
}

// A hard outage: AnswerComplete degrades to the flagged local
// approximation, the degradation counter moves, repeated failures open the
// circuit breaker, and the webhouse recovers to exact answers once the
// source is back and the cooldown has passed.
func TestAnswerCompleteDegradesOnOutageAndRecovers(t *testing.T) {
	doc := workload.PaperCatalog()
	truth := workload.Query4().Eval(doc)
	src, err := NewSource("catalog", workload.CatalogType(), doc)
	if err != nil {
		t.Fatal(err)
	}
	wh := New()
	wh.Register(src)
	inj := faulty.NewInjector(src.Name, src, faulty.InjectorConfig{})
	client := faulty.NewRetryClient(inj, faulty.RetryConfig{
		MaxAttempts:      2,
		BaseDelay:        50 * time.Microsecond,
		MaxDelay:         time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
	})
	if err := wh.SetClient(src.Name, client); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := wh.Explore(ctx, "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}

	inj.SetDown(true)
	const downCalls = 5
	for i := 0; i < downCalls; i++ {
		ca, err := wh.AnswerComplete(ctx, "catalog", workload.Query4())
		if err != nil {
			t.Fatalf("outage call %d errored instead of degrading: %v", i, err)
		}
		if !ca.Degraded {
			t.Fatalf("outage call %d not degraded", i)
		}
		if !errors.Is(ca.Cause, faulty.ErrUnavailable) {
			t.Errorf("cause does not wrap ErrUnavailable: %v", ca.Cause)
		}
		if ca.Local == nil || !ca.Possible.Member(truth) {
			t.Error("degraded answer excludes the true answer")
		}
		assertSubsetOf(t, ca.Answer, truth, "degraded answer")
		if ca.LocalQueries == 0 {
			t.Error("degraded result should report the attempted local queries")
		}
	}
	st := wh.Stats()
	if st.DegradedAnswers != downCalls {
		t.Errorf("DegradedAnswers = %d, want %d", st.DegradedAnswers, downCalls)
	}
	if st.Source.BreakerOpens == 0 {
		t.Errorf("breaker never opened during the outage: %+v", st.Source)
	}
	if st.Source.Rejections == 0 {
		t.Errorf("open breaker rejected nothing: %+v", st.Source)
	}

	inj.SetDown(false)
	time.Sleep(25 * time.Millisecond) // past the breaker cooldown
	ca, err := wh.AnswerComplete(ctx, "catalog", workload.Query4())
	if err != nil {
		t.Fatal(err)
	}
	if ca.Degraded {
		t.Fatalf("still degraded after recovery: %v", ca.Cause)
	}
	if !ca.Answer.Equal(truth) {
		t.Errorf("recovered answer wrong:\n%s\nwant:\n%s", ca.Answer, truth)
	}
	if got := wh.Stats().DegradedAnswers; got != downCalls {
		t.Errorf("recovery bumped DegradedAnswers to %d", got)
	}
}

// An expired context is refused promptly by every serving entry point —
// no source contact, no pooled computation.
func TestExpiredContextRefusedEverywhere(t *testing.T) {
	wh, _ := newCatalogWebhouse(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := wh.Explore(ctx, "catalog", workload.Query1(200)); !errors.Is(err, context.Canceled) {
		t.Errorf("Explore: %v", err)
	}
	if _, err := wh.AnswerLocally(ctx, "catalog", workload.Query3(100)); !errors.Is(err, context.Canceled) {
		t.Errorf("AnswerLocally: %v", err)
	}
	if _, err := wh.AnswerComplete(ctx, "catalog", workload.Query4()); !errors.Is(err, context.Canceled) {
		t.Errorf("AnswerComplete: %v", err)
	}
}

// A deadline interrupts a slow source mid-call: Explore against a source
// with multi-second injected latency returns the deadline error well
// before the latency elapses, and AnswerComplete (whose degraded fallback
// cannot run either once the deadline passed) surfaces it too.
func TestDeadlineInterruptsSlowSource(t *testing.T) {
	wh, _, inj, _ := flakyCatalog(t, workload.PaperCatalog(), 0, 1)
	inj.SetLatency(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := wh.Explore(ctx, "catalog", workload.Query1(200))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Explore under deadline: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Explore blocked %v on a 30ms deadline", el)
	}
	// Nothing was learned, so AnswerComplete must reach for the source too.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start = time.Now()
	if _, err := wh.AnswerComplete(ctx2, "catalog", workload.Query4()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("AnswerComplete under deadline: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("AnswerComplete blocked %v on a 30ms deadline", el)
	}
}

// Satellite 4 property: across seeds, a Theorem 3.19 completion executed
// through a 30%-flaky retrying client yields (i) pairwise non-overlapping
// answers, (ii) answers identical to a direct fault-free execution, and
// (iii) a merge that answers the query exactly — retries repair the random
// subset of failing local queries without corrupting the completion.
func TestCompletionPropertyUnderFaults(t *testing.T) {
	hidden := workload.CatalogDocument([]workload.Product{
		{ID: "canon", Name: 10, Price: 120, Subcat: workload.ValCamera, Pictures: []int64{20}},
		{ID: "nikon", Name: 11, Price: 199, Subcat: workload.ValCamera},
		{ID: "sony", Name: 12, Price: 175, Subcat: workload.ValCDPlayer},
		{ID: "leica", Name: 17, Price: 999, Subcat: workload.ValCamera}, // invisible to the exploration queries
	})
	q4 := workload.Query4()
	want := q4.Eval(hidden)
	var totalRetries uint64
	for seed := int64(1); seed <= 5; seed++ {
		wh, _, _, client := flakyCatalog(t, hidden, 0.3, seed)
		mustExplore(t, wh, workload.Query1(200))
		mustExplore(t, wh, workload.Query2())
		know, err := wh.Knowledge("catalog")
		if err != nil {
			t.Fatal(err)
		}
		ls, err := mediator.Complete(know, q4)
		if err != nil {
			t.Fatal(err)
		}
		if len(ls) == 0 {
			t.Fatalf("seed %d: empty completion for a non-answerable query", seed)
		}
		var answers []tree.Tree
		for i := 0; ; i++ {
			answers, err = mediator.ExecuteAll(context.Background(), nil, client, ls)
			if err == nil {
				break
			}
			if !errors.Is(err, faulty.ErrUnavailable) || i >= 50 {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		seen := map[tree.NodeID]int{}
		for qi, a := range answers {
			if !a.Equal(ls[qi].Execute(hidden)) {
				t.Errorf("seed %d: retried answer %d differs from direct execution", seed, qi)
			}
			a.Walk(func(n *tree.Node) {
				if prev, ok := seen[n.ID]; ok && prev != qi {
					t.Errorf("seed %d: node %s returned by local queries %d and %d", seed, n.ID, prev, qi)
				}
				seen[n.ID] = qi
			})
		}
		merged, err := mediator.Merge(know.DataTree(), answers...)
		if err != nil {
			t.Fatalf("seed %d: merge: %v", seed, err)
		}
		if got := q4.Eval(merged); !got.Equal(want) {
			t.Errorf("seed %d: merged completion answers wrong:\n%s\nwant:\n%s", seed, got, want)
		}
		totalRetries += client.Stats().Retries
	}
	if totalRetries == 0 {
		t.Error("no local query ever needed a retry at 30% fault rate")
	}
}

// Satellite 1 regression: Source.Ask/AskLocal evaluate outside the source
// lock, so two concurrent queries overlap. Against the old
// hold-the-lock-across-eval code the second call cannot reach the
// evaluation hook while the first is parked in it, and this test times out.
func TestSourceQueriesOverlap(t *testing.T) {
	src, err := NewSource("catalog", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	testHookSourceEval = func() {
		arrived <- struct{}{}
		<-release
	}
	defer func() { testHookSourceEval = nil }()

	done := make(chan tree.Tree, 2)
	go func() { done <- src.Ask(workload.Query1(200)) }()
	go func() {
		done <- src.AskLocal(mediator.LocalQuery{At: "canon", Q: query.MustParse("product\n  price\n")})
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatal("concurrent source queries serialized: evaluation holds the source lock")
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if a := <-done; a.IsEmpty() {
			t.Error("overlapping query lost its answer")
		}
	}
	if q, n := src.Served(); q != 2 || n == 0 {
		t.Errorf("served counters (%d, %d) after two overlapping queries", q, n)
	}
}

// The decision-memo counters in Stats are process-global — two webhouses
// report identical counters and see each other's traffic — while the
// answer-cache and degradation counters stay per-webhouse.
func TestStatsGlobalCachesSharedAcrossWebhouses(t *testing.T) {
	wh1, _ := newCatalogWebhouse(t)
	wh2, _ := newCatalogWebhouse(t)
	base := wh2.Stats()
	ctx := context.Background()
	if _, err := wh1.Explore(ctx, "catalog", workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	if _, err := wh1.AnswerLocally(ctx, "catalog", workload.Query3(100)); err != nil {
		t.Fatal(err)
	}
	s1, s2 := wh1.Stats(), wh2.Stats()
	if s1.Decision != s2.Decision {
		t.Errorf("global decision counters diverge between webhouses:\n%+v\n%+v", s1, s2)
	}
	if s2.Decision.Hits+s2.Decision.Misses <= base.Decision.Hits+base.Decision.Misses {
		t.Error("wh1's decision-memo traffic invisible to wh2: counters not shared?")
	}
	if s2.AnswerCacheMisses != base.AnswerCacheMisses || s2.DegradedAnswers != base.DegradedAnswers {
		t.Error("per-webhouse counters leaked across instances")
	}
}
