package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"incxml/internal/engine"
	"incxml/internal/faulty"
	"incxml/internal/itree"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

// fastRetry keeps retry/breaker timing test-friendly: fail fast, recover
// fast.
var fastRetry = faulty.RetryConfig{
	MaxAttempts:      2,
	BaseDelay:        50 * time.Microsecond,
	MaxDelay:         time.Millisecond,
	BreakerThreshold: 3,
	BreakerCooldown:  10 * time.Millisecond,
}

// fixture builds a cluster over n random catalog sources named src00..,
// registers them, and returns the cluster plus each source's true world.
func fixture(t testing.TB, cfg Config, n int) (*Cluster, map[string]tree.Tree) {
	t.Helper()
	c := New(cfg)
	worlds := map[string]tree.Tree{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("src%02d", i)
		world := workload.RandomCatalog(4+i%5, int64(100+i))
		src, err := webhouse.NewSource(name, workload.CatalogType(), world)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(src); err != nil {
			t.Fatal(err)
		}
		worlds[name] = world
	}
	return c, worlds
}

// warm primes every source's knowledge with Query 1 so that Query 4 needs
// a genuine Theorem 3.19 completion (the fully-answerable shortcut must
// not fire).
func warm(t testing.TB, c *Cluster) {
	t.Helper()
	ctx := context.Background()
	for _, name := range c.Sources() {
		if _, err := c.Explore(ctx, name, workload.Query1(200)); err != nil {
			t.Fatalf("warm %s: %v", name, err)
		}
	}
}

func assertSubsetOf(t *testing.T, a, want tree.Tree, what string) {
	t.Helper()
	ids := want.IDs()
	a.Walk(func(n *tree.Node) {
		if !ids[n.ID] {
			t.Errorf("%s: node %s not part of the true answer", what, n.ID)
		}
	})
}

func TestRingDeterministicAndCovering(t *testing.T) {
	r1 := NewRing(4, 0)
	r2 := NewRing(4, 0)
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("source-%d", i)
		s := r1.Owner(key)
		if s < 0 || s >= 4 {
			t.Fatalf("owner %d out of range", s)
		}
		if got := r2.Owner(key); got != s {
			t.Fatalf("rings disagree on %q: %d vs %d", key, s, got)
		}
		if got := r1.Owner(key); got != s {
			t.Fatalf("ring not stable on %q", key)
		}
		counts[s]++
	}
	// Consistent hashing trades perfect balance for stability; with 64
	// vnodes per shard every shard must still see a solid share of 1000
	// keys. The bound is deliberately loose — this guards against a broken
	// ring (one shard owning everything), not against statistical skew.
	for s, n := range counts {
		if n < 50 {
			t.Errorf("shard %d owns only %d/1000 keys", s, n)
		}
	}
	if NewRing(1, 0).Owner("anything") != 0 {
		t.Error("single-shard ring must own everything")
	}
}

func TestRegisterRoutesByRing(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 4, Retry: fastRetry}, 10)
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d", c.Shards())
	}
	total := 0
	for _, name := range c.Sources() {
		g, err := c.Owner(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.Ring().Owner(name); g.ID() != want {
			t.Errorf("%s registered on shard %d, ring says %d", name, g.ID(), want)
		}
		inj, err := c.Injector(name)
		if err != nil || inj == nil {
			t.Errorf("no injector for %s: %v", name, err)
		}
	}
	for _, g := range c.Groups() {
		total += len(g.Sources())
	}
	if total != 10 {
		t.Errorf("groups hold %d sources in total, want 10", total)
	}
	// Duplicate registration must be refused.
	src, err := webhouse.NewSource("src00", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(src); err == nil {
		t.Error("duplicate registration accepted")
	}
	// Unknown sources are reported as such.
	if _, err := c.Owner("ghost"); !errors.Is(err, webhouse.ErrUnknownSource) {
		t.Errorf("Owner(ghost) = %v", err)
	}
}

func TestScatterCompleteExactAndOrdered(t *testing.T) {
	c, worlds := fixture(t, Config{Shards: 3, Retry: fastRetry}, 8)
	warm(t, c)
	q := workload.Query4()
	s, err := c.ScatterComplete(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Answers) != 8 {
		t.Fatalf("%d answers for 8 sources", len(s.Answers))
	}
	for i, sa := range s.Answers {
		if i > 0 && s.Answers[i-1].Source >= sa.Source {
			t.Errorf("answers not sorted at %d: %s >= %s", i, s.Answers[i-1].Source, sa.Source)
		}
		if sa.Err != nil {
			t.Fatalf("%s: %v", sa.Source, sa.Err)
		}
		if sa.Degraded() {
			t.Errorf("%s degraded without any fault", sa.Source)
		}
		truth := q.Eval(worlds[sa.Source])
		if !sa.Complete.Answer.Equal(truth) {
			t.Errorf("%s: wrong exact answer", sa.Source)
		}
		if g, _ := c.Owner(sa.Source); g.ID() != sa.Shard {
			t.Errorf("%s attributed to shard %d, owner is %d", sa.Source, sa.Shard, g.ID())
		}
	}
	if s.Degraded() || len(s.DegradedShards) != 0 {
		t.Errorf("healthy scatter classified degraded: %v", s.DegradedShards)
	}
	// Every shard holding sources is reported complete.
	want := 0
	for _, g := range c.Groups() {
		if len(g.Sources()) > 0 {
			want++
		}
	}
	if len(s.CompleteShards) != want {
		t.Errorf("CompleteShards = %v, want %d shards", s.CompleteShards, want)
	}
	if total, degraded := c.Scatters(); total != 1 || degraded != 0 {
		t.Errorf("scatter counters = (%d, %d), want (1, 0)", total, degraded)
	}
}

// TestScatterDifferentialParallelVsSeq pins the parallel scatter
// byte-identical to the sequential baseline: same answers (compared via
// CanonicalWithIDs), same shard classification.
func TestScatterDifferentialParallelVsSeq(t *testing.T) {
	build := func() (*Cluster, map[string]tree.Tree) {
		c, worlds := fixture(t, Config{Shards: 4, Retry: fastRetry}, 9)
		warm(t, c)
		return c, worlds
	}
	cp, _ := build()
	cs, _ := build()
	cs.scatterPool = engine.NewPool(1) // the sequential reference
	q := workload.Query4()
	sp, err := cp.ScatterComplete(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := cs.ScatterComplete(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Answers) != len(ss.Answers) {
		t.Fatalf("%d parallel answers vs %d sequential", len(sp.Answers), len(ss.Answers))
	}
	for i := range sp.Answers {
		p, s := sp.Answers[i], ss.Answers[i]
		if p.Source != s.Source || p.Shard != s.Shard {
			t.Fatalf("answer %d misaligned: %s/%d vs %s/%d", i, p.Source, p.Shard, s.Source, s.Shard)
		}
		if p.Complete.Answer.CanonicalWithIDs() != s.Complete.Answer.CanonicalWithIDs() {
			t.Errorf("%s: parallel and sequential scatter disagree", p.Source)
		}
	}
	if fmt.Sprint(sp.CompleteShards) != fmt.Sprint(ss.CompleteShards) ||
		fmt.Sprint(sp.DegradedShards) != fmt.Sprint(ss.DegradedShards) {
		t.Errorf("shard classification differs: %v/%v vs %v/%v",
			sp.CompleteShards, sp.DegradedShards, ss.CompleteShards, ss.DegradedShards)
	}
}

// TestOneShardDownSoundness is the one-shard-outage soak: with one shard
// hard down, repeated scatters must flag exactly that shard's sources as
// degraded — each degraded answer sound per Theorem 3.14 (a subset of the
// true answer whose possible set still contains it) — while every other
// source keeps answering exactly. Lifting the outage restores exact
// answers everywhere.
func TestOneShardDownSoundness(t *testing.T) {
	c, worlds := fixture(t, Config{Shards: 4, Retry: fastRetry}, 12)
	warm(t, c)
	var downG *Group
	for _, g := range c.Groups() {
		if len(g.Sources()) > 0 {
			downG = g
			break
		}
	}
	if downG == nil {
		t.Fatal("no shard holds sources")
	}
	downG.SetDown(true)
	if !downG.Down() {
		t.Fatal("Down() not reporting the outage")
	}
	q := workload.Query4()
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		s, err := c.ScatterComplete(context.Background(), q)
		if err != nil {
			t.Fatalf("round %d: a down shard must degrade, not fail the scatter: %v", round, err)
		}
		for _, sa := range s.Answers {
			truth := q.Eval(worlds[sa.Source])
			if sa.Err != nil {
				t.Fatalf("round %d: %s: hard error instead of degradation: %v", round, sa.Source, sa.Err)
			}
			if sa.Shard == downG.ID() {
				if !sa.Complete.Degraded {
					t.Errorf("round %d: %s on the down shard answered exactly", round, sa.Source)
					continue
				}
				if !errors.Is(sa.Complete.Cause, faulty.ErrUnavailable) {
					t.Errorf("round %d: %s: cause does not wrap ErrUnavailable: %v", round, sa.Source, sa.Complete.Cause)
				}
				// Theorem 3.14 soundness: the degraded answer is a lower
				// approximation of the truth, and the possible-answer set
				// has not excluded the truth.
				assertSubsetOf(t, sa.Complete.Answer, truth, sa.Source)
				if sa.Complete.Local == nil || !sa.Complete.Possible.Member(truth) {
					t.Errorf("round %d: %s: possible set excludes the true answer", round, sa.Source)
				}
			} else {
				if sa.Degraded() {
					t.Errorf("round %d: %s degraded on a healthy shard", round, sa.Source)
				} else if !sa.Complete.Answer.Equal(truth) {
					t.Errorf("round %d: %s: wrong exact answer on a healthy shard", round, sa.Source)
				}
			}
		}
		if len(s.DegradedShards) != 1 || s.DegradedShards[0] != downG.ID() {
			t.Errorf("round %d: DegradedShards = %v, want [%d]", round, s.DegradedShards, downG.ID())
		}
	}
	if _, degraded := c.Scatters(); degraded == 0 {
		t.Error("degraded-scatter counter never moved")
	}
	if downG.Degraded() == 0 {
		t.Error("per-shard degraded counter never moved")
	}

	// Recovery: outage lifted, breaker cooled down, answers exact again.
	downG.SetDown(false)
	time.Sleep(2 * fastRetry.BreakerCooldown)
	s, err := c.ScatterComplete(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, sa := range s.Answers {
		if sa.Degraded() {
			t.Errorf("%s still degraded after recovery", sa.Source)
		}
	}
	if len(s.DegradedShards) != 0 {
		t.Errorf("DegradedShards = %v after recovery", s.DegradedShards)
	}
}

// TestRoutedOperationsCountPerShard: the single-source explore and local
// routes move the owning shard's counters like every other routed
// operation, and a failed exploration counts as degraded.
func TestRoutedOperationsCountPerShard(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 2, Retry: fastRetry}, 4)
	ctx := context.Background()
	name := c.Sources()[0]
	g, err := c.Owner(name)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, requests, degraded uint64) {
		t.Helper()
		if g.Requests() != requests || g.Degraded() != degraded {
			t.Errorf("after %s: requests/degraded = %d/%d, want %d/%d",
				what, g.Requests(), g.Degraded(), requests, degraded)
		}
	}
	if _, err := c.Explore(ctx, name, workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	check("explore", 1, 0)
	if _, err := c.AnswerLocally(ctx, name, workload.Query4()); err != nil {
		t.Fatal(err)
	}
	check("local", 2, 0)
	g.SetDown(true)
	if _, err := c.Explore(ctx, name, workload.Query4()); !errors.Is(err, faulty.ErrUnavailable) {
		t.Fatalf("explore on a down shard: %v, want ErrUnavailable", err)
	}
	check("failed explore", 3, 1)
}

// TestScatterExpiredContext: a dead context refuses the scatter instead of
// reporting a partial cluster.
func TestScatterExpiredContext(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 2, Retry: fastRetry}, 4)
	warm(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ScatterComplete(ctx, workload.Query4()); !errors.Is(err, context.Canceled) {
		t.Errorf("ScatterComplete under dead context: %v", err)
	}
	if _, err := c.ScatterLocal(ctx, workload.Query4()); !errors.Is(err, context.Canceled) {
		t.Errorf("ScatterLocal under dead context: %v", err)
	}
}

func TestScatterLocalNeverContactsSources(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 3, Retry: fastRetry}, 6)
	warm(t, c)
	before := map[string]uint64{}
	for _, name := range c.Sources() {
		inj, _ := c.Injector(name)
		before[name] = inj.Calls()
	}
	s, err := c.ScatterLocal(context.Background(), workload.Query4())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Answers) != 6 {
		t.Fatalf("%d answers for 6 sources", len(s.Answers))
	}
	for _, sa := range s.Answers {
		if sa.Err != nil || sa.Local == nil {
			t.Errorf("%s: %v", sa.Source, sa.Err)
		}
	}
	for _, name := range c.Sources() {
		inj, _ := c.Injector(name)
		if inj.Calls() != before[name] {
			t.Errorf("ScatterLocal contacted source %s", name)
		}
	}
}

// TestScatterSharesKnowledgeSnapshot runs concurrent local scatters between
// two folds (run it under -race): every scatter answers and merges its
// certificate over each source's memoized knowledge snapshot, which must
// stay the same tree with unchanged content.
func TestScatterSharesKnowledgeSnapshot(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 2, Retry: fastRetry}, 4)
	warm(t, c)
	snaps := map[string]*itree.T{}
	contents := map[string]string{}
	mayBeEmpty := map[string]bool{}
	for _, name := range c.Sources() {
		know, err := c.Knowledge(name)
		if err != nil {
			t.Fatal(err)
		}
		snaps[name], contents[name], mayBeEmpty[name] = know, know.String(), know.MayBeEmpty
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Distinct bounds miss the answer caches, so each scatter
				// builds its local answers on the shared snapshots.
				q := workload.Query1(int64(100 + 10*(g*rounds+i)))
				if i%2 == 1 {
					q = workload.Query4()
				}
				if _, err := c.ScatterLocal(context.Background(), q); err != nil {
					errc <- err
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
	for name, know := range snaps {
		if got, err := c.Knowledge(name); err != nil || got != know {
			t.Errorf("%s: Knowledge changed without a fold (%v)", name, err)
		}
		if know.String() != contents[name] || know.MayBeEmpty != mayBeEmpty[name] {
			t.Errorf("%s: a scatter mutated the shared knowledge snapshot", name)
		}
	}
}

// TestE22ScatterSmoke is the E22 experiment in miniature: with injected
// per-call source latency, the parallel scatter across 4 shards must beat
// the sequential reference (a one-worker scatter pool) wall-clock on the
// same cluster shape. Kept loose (strictly faster, no factor) so CI load
// cannot flake it; BenchmarkE22 below measures the full 1/2/4-shard curve.
func TestE22ScatterSmoke(t *testing.T) {
	latency := 10 * time.Millisecond
	if testing.Short() {
		latency = 4 * time.Millisecond
	}
	cfg := Config{
		Shards:   4,
		Retry:    fastRetry,
		Injector: faulty.InjectorConfig{Latency: latency},
	}
	build := func() *Cluster {
		c, _ := fixture(t, cfg, 8)
		warm(t, c)
		return c
	}
	cSeq, cPar := build(), build()
	cSeq.scatterPool = engine.NewPool(1) // the sequential reference
	// The timing claim needs the ring to have actually spread the sources;
	// with everything on one shard parallel == sequential.
	maxLoad := 0
	for _, g := range cPar.Groups() {
		if n := len(g.Sources()); n > maxLoad {
			maxLoad = n
		}
	}
	if maxLoad >= 8 {
		t.Skip("ring put every source on one shard; no parallelism to measure")
	}
	q := workload.Query4()
	t0 := time.Now()
	ss, err := cSeq.ScatterComplete(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	seqD := time.Since(t0)
	t0 = time.Now()
	sp, err := cPar.ScatterComplete(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	parD := time.Since(t0)
	if ss.Degraded() || sp.Degraded() {
		t.Fatal("latency-only injection must not degrade anything")
	}
	t.Logf("sequential %v, parallel %v (max shard load %d/8)", seqD, parD, maxLoad)
	if parD >= seqD {
		t.Errorf("parallel scatter (%v) not faster than sequential (%v)", parD, seqD)
	}
}

// BenchmarkE22 is the EXPERIMENTS.md E22 scan: one cluster-wide Query 4
// completion over 8 sources with 5ms of injected per-call source latency,
// the parallel scatter against the sequential reference at 1, 2 and 4
// shards, plus the parallel scatter at 4 shards with one populated shard
// down. The down shard must degrade its own sources to flagged
// approximations without stretching the healthy shards' time.
//
// Every iteration starts from cold knowledge: Invalidate plus a Query 1
// warm, off the clock. Without the reset the first completion makes
// Query 4 fully answerable and later iterations would time nothing.
func BenchmarkE22(b *testing.B) {
	ctx := context.Background()
	q := workload.Query4()
	cfg := func(shards int) Config {
		return Config{
			Shards:   shards,
			Retry:    fastRetry,
			Injector: faulty.InjectorConfig{Latency: 5 * time.Millisecond},
		}
	}
	// run times b.N completions; sources in down keep their pre-outage
	// knowledge, since the reset cannot reach them.
	run := func(b *testing.B, c *Cluster, parallel bool, down map[string]bool) {
		if !parallel {
			c.scatterPool = engine.NewPool(1) // the sequential reference
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, name := range c.Sources() {
				if down[name] {
					continue
				}
				if err := c.Invalidate(name); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Explore(ctx, name, workload.Query1(200)); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			sc, err := c.ScatterComplete(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range sc.Answers {
				if a.Degraded() != down[a.Source] {
					b.Fatalf("%s: degraded=%v, want %v", a.Source, a.Degraded(), down[a.Source])
				}
			}
		}
	}
	for _, n := range []int{1, 2, 4} {
		for _, parallel := range []bool{true, false} {
			name := fmt.Sprintf("shards=%d/seq", n)
			if parallel {
				name = fmt.Sprintf("shards=%d/scatter", n)
			}
			b.Run(name, func(b *testing.B) {
				c, _ := fixture(b, cfg(n), 8)
				run(b, c, parallel, nil)
			})
		}
	}
	b.Run("shards=4/one-down", func(b *testing.B) {
		c, _ := fixture(b, cfg(4), 8)
		warm(b, c)
		down := map[string]bool{}
		for _, g := range c.Groups() {
			if srcs := g.Sources(); len(srcs) > 0 {
				g.SetDown(true)
				for _, name := range srcs {
					down[name] = true
				}
				break
			}
		}
		run(b, c, true, down)
	})
}
