package faulty

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"incxml/internal/mediator"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// RetryConfig parameterizes a RetryClient. The zero value selects the
// defaults noted per field.
type RetryConfig struct {
	// MaxAttempts bounds the total tries per call (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 5ms); each
	// further retry multiplies it by Multiplier (default 2), capped at
	// MaxDelay (default 250ms).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// JitterFrac spreads each delay uniformly over
	// [delay*(1-JitterFrac/2), delay*(1+JitterFrac/2)] so synchronized
	// retry storms decorrelate (default 0.5; negative disables jitter).
	JitterFrac float64
	// BreakerThreshold is the number of consecutive failed calls (not
	// attempts) that opens the circuit breaker (default 5; negative
	// disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// letting a probe through (default 1s).
	BreakerCooldown time.Duration
	// Seed seeds the jitter RNG (on the first backoff, with the same
	// sequence as seeding it at construction).
	Seed int64
}

func (cfg RetryConfig) withDefaults() RetryConfig {
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseDelay == 0 {
		cfg.BaseDelay = 5 * time.Millisecond
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 250 * time.Millisecond
	}
	if cfg.Multiplier == 0 {
		cfg.Multiplier = 2
	}
	if cfg.JitterFrac == 0 {
		cfg.JitterFrac = 0.5
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = time.Second
	}
	return cfg
}

// ClientStats is a snapshot of a RetryClient's counters. Aggregate stats
// from several clients with Add.
type ClientStats struct {
	Attempts     uint64 // calls forwarded to the wrapped client
	Retries      uint64 // attempts beyond the first
	Failures     uint64 // calls that failed after all retries
	BreakerOpens uint64 // closed/half-open -> open transitions
	Rejections   uint64 // calls rejected by an open breaker
}

// Add accumulates other into s.
func (s *ClientStats) Add(other ClientStats) {
	s.Attempts += other.Attempts
	s.Retries += other.Retries
	s.Failures += other.Failures
	s.BreakerOpens += other.BreakerOpens
	s.Rejections += other.Rejections
}

// breakerState is the circuit breaker's explicit state machine.
type breakerState uint8

const (
	stateClosed   breakerState = iota // normal service
	stateOpen                         // rejecting until the cooldown elapses
	stateHalfOpen                     // exactly one probe in flight
)

// breaker is a per-source circuit breaker: consecutive failures open it,
// an open breaker rejects calls until the cooldown elapses, then exactly
// one caller wins the half-open probe; every other caller keeps failing
// fast until the probe resolves. A probe success closes the breaker, a
// probe failure reopens it, and a probe abandoned without a verdict (the
// caller's own context expired) releases half-open back to open so the
// next caller may probe immediately — an unresolved probe must never wedge
// the breaker half-open forever.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    breakerState
	failures int
	until    time.Time
	opens    uint64
}

// allow reports whether a call may proceed and whether it is the
// single half-open probe (the caller must then resolve the probe via
// success, failure, or release).
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	if b.threshold < 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true, false
	case stateOpen:
		if now.Before(b.until) {
			return false, false
		}
		b.state = stateHalfOpen
		return true, true
	default: // stateHalfOpen: a probe is already in flight
		return false, false
	}
}

func (b *breaker) success() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.state = stateClosed
	b.failures = 0
	b.mu.Unlock()
}

func (b *breaker) failure(now time.Time) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateHalfOpen:
		b.opens++ // a failed probe reopens
		b.state = stateOpen
		b.until = now.Add(b.cooldown)
	case stateOpen:
		// A straggler admitted before the breaker opened; already open, so
		// just push the cooldown out.
		b.until = now.Add(b.cooldown)
	default: // stateClosed
		b.failures++
		if b.failures >= b.threshold {
			b.opens++
			b.state = stateOpen
			b.until = now.Add(b.cooldown)
		}
	}
}

// release returns an unresolved half-open probe: the breaker reverts to
// open with the cooldown already elapsed, so the next allow wins a fresh
// probe.
func (b *breaker) release() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	if b.state == stateHalfOpen {
		b.state = stateOpen
	}
	b.mu.Unlock()
}

// RetryClient wraps a SourceClient with exponential backoff + jitter, a
// per-source circuit breaker, and deadline enforcement: it never starts a
// backoff sleep that cannot finish before the context deadline. Safe for
// concurrent use.
type RetryClient struct {
	inner SourceClient
	cfg   RetryConfig
	brk   breaker

	// rngMu guards rng, the jitter source, which is seeded with cfg.Seed on
	// the first backoff: a client that never retries never pays for it.
	rngMu sync.Mutex
	rng   *rand.Rand

	attempts   atomic.Uint64
	retries    atomic.Uint64
	failures   atomic.Uint64
	rejections atomic.Uint64

	// now and sleep are the clock, replaceable in tests.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// NewRetryClient wraps inner with the retry/breaker policy of cfg.
func NewRetryClient(inner SourceClient, cfg RetryConfig) *RetryClient {
	cfg = cfg.withDefaults()
	return &RetryClient{
		inner: inner,
		cfg:   cfg,
		brk:   breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
		now:   time.Now,
		sleep: sleepCtx,
	}
}

// BreakerOpen reports whether the circuit breaker is currently not serving
// normally — open (rejecting) or half-open (single probe in flight). It is
// the live admission state behind the `incxml_source_breaker_open` gauge.
func (c *RetryClient) BreakerOpen() bool {
	c.brk.mu.Lock()
	defer c.brk.mu.Unlock()
	return c.brk.state != stateClosed
}

// Stats returns a snapshot of the client's counters.
func (c *RetryClient) Stats() ClientStats {
	c.brk.mu.Lock()
	opens := c.brk.opens
	c.brk.mu.Unlock()
	return ClientStats{
		Attempts:     c.attempts.Load(),
		Retries:      c.retries.Load(),
		Failures:     c.failures.Load(),
		BreakerOpens: opens,
		Rejections:   c.rejections.Load(),
	}
}

// backoff computes the jittered delay before retry number `retry` (1-based).
func (c *RetryClient) backoff(retry int) time.Duration {
	d := float64(c.cfg.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= c.cfg.Multiplier
		if d >= float64(c.cfg.MaxDelay) {
			break
		}
	}
	if d > float64(c.cfg.MaxDelay) {
		d = float64(c.cfg.MaxDelay)
	}
	if j := c.cfg.JitterFrac; j > 0 {
		c.rngMu.Lock()
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(c.cfg.Seed))
		}
		u := c.rng.Float64()
		c.rngMu.Unlock()
		d *= 1 + j*(u-0.5)
	}
	return time.Duration(d)
}

// do runs one logical call through the retry/breaker policy. A call that
// wins the half-open probe must resolve it on every exit: success and
// failure do so through the breaker verdicts, and the context-expiry exits
// (which say nothing about the source's health) release the probe so other
// callers are not locked out behind a verdict that will never come.
func (c *RetryClient) do(ctx context.Context, attempt func(context.Context) (tree.Tree, error)) (tree.Tree, error) {
	ok, probe := c.brk.allow(c.now())
	if !ok {
		c.rejections.Add(1)
		return tree.Tree{}, fmt.Errorf("%w: circuit breaker open", ErrUnavailable)
	}
	resolved := false
	if probe {
		defer func() {
			if !resolved {
				c.brk.release()
			}
		}()
	}
	succeed := func() { resolved = true; c.brk.success() }
	fail := func() { resolved = true; c.brk.failure(c.now()); c.failures.Add(1) }
	var last error
	for try := 1; try <= c.cfg.MaxAttempts; try++ {
		if err := ctx.Err(); err != nil {
			return tree.Tree{}, err // caller's deadline, not the source's fault
		}
		c.attempts.Add(1)
		a, err := attempt(ctx)
		if err == nil {
			succeed()
			return a, nil
		}
		last = err
		if ctx.Err() != nil {
			return tree.Tree{}, err
		}
		if !IsTransient(err) {
			break
		}
		if try == c.cfg.MaxAttempts {
			break
		}
		d := c.backoff(try)
		if dl, ok := ctx.Deadline(); ok && c.now().Add(d).After(dl) {
			// The backoff cannot finish before the deadline: give up now so
			// the caller has the remaining budget for a degraded answer.
			fail()
			return tree.Tree{}, fmt.Errorf("%w: deadline precludes retry %d: %w", ErrUnavailable, try, last)
		}
		c.retries.Add(1)
		if err := c.sleep(ctx, d); err != nil {
			return tree.Tree{}, err
		}
	}
	fail()
	return tree.Tree{}, fmt.Errorf("%w: %w", ErrUnavailable, last)
}

func (c *RetryClient) Ask(ctx context.Context, q query.Query) (tree.Tree, error) {
	return c.do(ctx, func(ctx context.Context) (tree.Tree, error) { return c.inner.Ask(ctx, q) })
}

func (c *RetryClient) AskLocal(ctx context.Context, lq mediator.LocalQuery) (tree.Tree, error) {
	return c.do(ctx, func(ctx context.Context) (tree.Tree, error) { return c.inner.AskLocal(ctx, lq) })
}
