package faulty

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"incxml/internal/mediator"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// fakeBackend is an always-available source returning a fixed one-node
// answer and counting calls.
type fakeBackend struct {
	mu    sync.Mutex
	calls int
}

func (f *fakeBackend) answer() tree.Tree {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return tree.Tree{Root: tree.NewID("a", "a", rat.FromInt(1))}
}

func (f *fakeBackend) Ask(q query.Query) tree.Tree               { return f.answer() }
func (f *fakeBackend) AskLocal(lq mediator.LocalQuery) tree.Tree { return f.answer() }
func (f *fakeBackend) served() int                               { f.mu.Lock(); defer f.mu.Unlock(); return f.calls }

// flakyClient fails its first n calls with a transient error, then
// delegates to a Direct client.
type flakyClient struct {
	mu   sync.Mutex
	left int
	d    Direct
}

func newFlaky(failures int) *flakyClient {
	return &flakyClient{left: failures, d: NewDirect(&fakeBackend{})}
}

func (f *flakyClient) fail() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left > 0 {
		f.left--
		return &SourceError{Source: "flaky", Op: "ask", Transient: true, Err: ErrTransient}
	}
	return nil
}

func (f *flakyClient) Ask(ctx context.Context, q query.Query) (tree.Tree, error) {
	if err := f.fail(); err != nil {
		return tree.Tree{}, err
	}
	return f.d.Ask(ctx, q)
}

func (f *flakyClient) AskLocal(ctx context.Context, lq mediator.LocalQuery) (tree.Tree, error) {
	if err := f.fail(); err != nil {
		return tree.Tree{}, err
	}
	return f.d.AskLocal(ctx, lq)
}

// instantClock replaces the retry client's clock: sleeps are recorded and
// advance a fake now.
type instantClock struct {
	mu     sync.Mutex
	t      time.Time
	sleeps []time.Duration
}

func (c *instantClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *instantClock) sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.t = c.t.Add(d)
	c.mu.Unlock()
	return ctx.Err()
}

func (c *instantClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func install(c *RetryClient, clk *instantClock) *RetryClient {
	c.now = clk.now
	c.sleep = clk.sleep
	return c
}

func TestDirectHonorsContext(t *testing.T) {
	b := &fakeBackend{}
	d := NewDirect(b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Ask(ctx, query.Query{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ask on cancelled ctx: err = %v", err)
	}
	if b.served() != 0 {
		t.Error("cancelled Ask reached the backend")
	}
	if _, err := d.Ask(context.Background(), query.Query{}); err != nil {
		t.Fatalf("Ask: %v", err)
	}
}

func TestInjectorTransientAndOutage(t *testing.T) {
	b := &fakeBackend{}
	in := NewInjector("src", b, InjectorConfig{FailRate: 1, Seed: 1})
	_, err := in.Ask(context.Background(), query.Query{})
	if !IsTransient(err) {
		t.Fatalf("FailRate=1 should yield a transient error, got %v", err)
	}
	in.SetDown(true)
	_, err = in.Ask(context.Background(), query.Query{})
	if !errors.Is(err, ErrUnavailable) || IsTransient(err) {
		t.Fatalf("outage should be a non-transient ErrUnavailable, got %v", err)
	}
	in.SetDown(false)
	if b.served() != 0 || in.Failures() != 2 {
		t.Errorf("counters: served=%d failures=%d", b.served(), in.Failures())
	}
	healthy := NewInjector("src", b, InjectorConfig{Seed: 1})
	if _, err := healthy.Ask(context.Background(), query.Query{}); err != nil {
		t.Fatalf("FailRate=0: %v", err)
	}
	if b.served() != 1 || healthy.Failures() != 0 {
		t.Errorf("healthy counters: served=%d failures=%d", b.served(), healthy.Failures())
	}
}

// The injector seeds its RNG on the first draw, so its fault sequence is
// the one an RNG seeded at construction gives: over 10,000 calls it fails
// exactly the calls such a reference picks.
func TestInjectorFaultsFollowSeededReference(t *testing.T) {
	const seed, rate, calls = 42, 0.3, 10000
	in := NewInjector("src", &fakeBackend{}, InjectorConfig{FailRate: rate, Seed: seed})
	ref := rand.New(rand.NewSource(seed))
	failed := 0
	for i := 0; i < calls; i++ {
		_, err := in.Ask(context.Background(), query.Query{})
		want := ref.Float64() < rate
		if (err != nil) != want {
			t.Fatalf("call %d: err = %v, reference fails it: %v", i, err, want)
		}
		if err != nil {
			failed++
		}
	}
	if in.Failures() != uint64(failed) || failed == 0 || failed == calls {
		t.Errorf("failures = %d, counted %d of %d", in.Failures(), failed, calls)
	}
}

// Retry jitter follows the same reference: each backoff draws the next
// value of an RNG seeded with the configured seed.
func TestJitterFollowsSeededReference(t *testing.T) {
	const seed = 9
	cfg := RetryConfig{BaseDelay: 100 * time.Millisecond, JitterFrac: 0.5, BreakerThreshold: -1, Seed: seed}
	c := install(NewRetryClient(newFlaky(0), cfg), &instantClock{t: time.Unix(0, 0)})
	ref := rand.New(rand.NewSource(seed))
	for i := 0; i < 1000; i++ {
		want := time.Duration(float64(100*time.Millisecond) * (1 + 0.5*(ref.Float64()-0.5)))
		if got := c.backoff(1); got != want {
			t.Fatalf("backoff %d = %v, reference %v", i, got, want)
		}
	}
}

// A fault-free injector never draws and a client that never retries never
// backs off, so neither holds an RNG.
func TestNoRNGWithoutDraws(t *testing.T) {
	in := NewInjector("src", &fakeBackend{}, InjectorConfig{Seed: 1})
	c := NewRetryClient(in, RetryConfig{Seed: 1})
	for i := 0; i < 100; i++ {
		if _, err := c.Ask(context.Background(), query.Query{}); err != nil {
			t.Fatal(err)
		}
	}
	if in.rng != nil || c.rng != nil {
		t.Errorf("RNG held without a draw: injector %v, client %v", in.rng != nil, c.rng != nil)
	}
	flaky := NewInjector("src", &fakeBackend{}, InjectorConfig{FailRate: 0.5, Seed: 1})
	if _, err := flaky.Ask(context.Background(), query.Query{}); flaky.rng == nil {
		t.Errorf("a flaky injector drew no RNG (err %v)", err)
	}
}

func TestInjectorLatencyInterruptible(t *testing.T) {
	b := &fakeBackend{}
	in := NewInjector("src", b, InjectorConfig{Latency: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := in.Ask(ctx, query.Query{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("latency sleep ignored the context")
	}
	if b.served() != 0 {
		t.Error("interrupted call reached the backend")
	}
}

func TestRetryRecoversFromTransientFailures(t *testing.T) {
	clk := &instantClock{t: time.Unix(0, 0)}
	c := install(NewRetryClient(newFlaky(2), RetryConfig{Seed: 7}), clk)
	a, err := c.Ask(context.Background(), query.Query{})
	if err != nil {
		t.Fatalf("Ask: %v", err)
	}
	if a.Root == nil {
		t.Fatal("empty answer after recovery")
	}
	s := c.Stats()
	if s.Attempts != 3 || s.Retries != 2 || s.Failures != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRetryExhaustionAndBackoffShape(t *testing.T) {
	clk := &instantClock{t: time.Unix(0, 0)}
	cfg := RetryConfig{
		MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond,
		Multiplier: 2, JitterFrac: -1, BreakerThreshold: -1, Seed: 7,
	}
	c := install(NewRetryClient(newFlaky(100), cfg), clk)
	_, err := c.Ask(context.Background(), query.Query{})
	if !errors.Is(err, ErrUnavailable) || !errors.Is(err, ErrTransient) {
		t.Fatalf("exhaustion error should wrap ErrUnavailable and the cause, got %v", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	clk.mu.Lock()
	sleeps := append([]time.Duration(nil), clk.sleeps...)
	clk.mu.Unlock()
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v (exponential, capped)", i, sleeps[i], want[i])
		}
	}
	if s := c.Stats(); s.Failures != 1 || s.Retries != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestJitterBounds(t *testing.T) {
	clk := &instantClock{t: time.Unix(0, 0)}
	cfg := RetryConfig{BaseDelay: 100 * time.Millisecond, JitterFrac: 0.5, BreakerThreshold: -1, Seed: 3}
	c := install(NewRetryClient(newFlaky(1000), cfg), clk)
	for i := 0; i < 50; i++ {
		d := c.backoff(1)
		if d < 75*time.Millisecond || d > 125*time.Millisecond {
			t.Fatalf("jittered delay %v outside [75ms, 125ms]", d)
		}
	}
}

func TestBreakerOpensRejectsAndRecovers(t *testing.T) {
	clk := &instantClock{t: time.Unix(0, 0)}
	flaky := newFlaky(1000)
	cfg := RetryConfig{MaxAttempts: 1, BreakerThreshold: 3, BreakerCooldown: time.Second, Seed: 5}
	c := install(NewRetryClient(flaky, cfg), clk)
	ctx := context.Background()

	// Three failed calls open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Ask(ctx, query.Query{}); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if s := c.Stats(); s.BreakerOpens != 1 {
		t.Fatalf("breaker should have opened once: %+v", s)
	}
	// While open, calls are rejected without touching the source.
	attemptsBefore := c.Stats().Attempts
	if _, err := c.Ask(ctx, query.Query{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open breaker: %v", err)
	}
	s := c.Stats()
	if s.Rejections != 1 || s.Attempts != attemptsBefore {
		t.Fatalf("open breaker should fail fast: %+v", s)
	}
	// After the cooldown a probe goes through; the source has recovered.
	flaky.mu.Lock()
	flaky.left = 0
	flaky.mu.Unlock()
	clk.advance(2 * time.Second)
	if _, err := c.Ask(ctx, query.Query{}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	// Closed again: normal service.
	if _, err := c.Ask(ctx, query.Query{}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestFailedProbeReopensBreaker(t *testing.T) {
	clk := &instantClock{t: time.Unix(0, 0)}
	flaky := newFlaky(1000)
	cfg := RetryConfig{MaxAttempts: 1, BreakerThreshold: 2, BreakerCooldown: time.Second, Seed: 5}
	c := install(NewRetryClient(flaky, cfg), clk)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		c.Ask(ctx, query.Query{})
	}
	clk.advance(2 * time.Second)
	c.Ask(ctx, query.Query{}) // failed probe
	if s := c.Stats(); s.BreakerOpens != 2 {
		t.Fatalf("failed probe should reopen: %+v", s)
	}
	attemptsBefore := c.Stats().Attempts
	if _, err := c.Ask(ctx, query.Query{}); !errors.Is(err, ErrUnavailable) {
		t.Fatal("breaker should reject after failed probe")
	}
	if c.Stats().Attempts != attemptsBefore {
		t.Fatal("rejected call reached the source")
	}
}

func TestDeadlinePrecludesRetry(t *testing.T) {
	// The fake clock must agree with the real one here: the context's
	// deadline check inside the stdlib uses real time.
	clk := &instantClock{t: time.Now()}
	cfg := RetryConfig{BaseDelay: 100 * time.Millisecond, JitterFrac: -1, Seed: 5}
	c := install(NewRetryClient(newFlaky(1000), cfg), clk)
	// Deadline 10ms out, backoff 100ms: the client must give up immediately
	// after the first attempt rather than sleeping past the deadline.
	ctx, cancel := context.WithDeadline(context.Background(), clk.now().Add(10*time.Millisecond))
	defer cancel()
	_, err := c.Ask(ctx, query.Query{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	s := c.Stats()
	if s.Attempts != 1 || s.Retries != 0 {
		t.Fatalf("should not retry past the deadline: %+v", s)
	}
	clk.mu.Lock()
	slept := len(clk.sleeps)
	clk.mu.Unlock()
	if slept != 0 {
		t.Fatal("client slept although the deadline precluded the retry")
	}
}

func TestCancelledContextNotCountedAsSourceFailure(t *testing.T) {
	clk := &instantClock{t: time.Unix(0, 0)}
	c := install(NewRetryClient(NewDirect(&fakeBackend{}), RetryConfig{BreakerThreshold: 1, Seed: 5}), clk)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Ask(ctx, query.Query{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// The breaker must not open: the caller cancelled, the source is fine.
	if _, err := c.Ask(context.Background(), query.Query{}); err != nil {
		t.Fatalf("breaker opened on caller cancellation: %v", err)
	}
}
