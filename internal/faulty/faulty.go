// Package faulty is the fault model of the webhouse serving layer.
//
// The paper's motivating system (Section 1) mediates over *remote,
// unreliable* sources: a warehouse accumulates incomplete knowledge
// precisely because contacting a source is expensive and may fail. The
// in-memory simulation substitutes a data tree for the live source
// (Remark 2.4, DESIGN.md substitution table) but the seed implementation
// also substituted away the failure mode — every Ask always succeeded
// instantly. This package puts the failure mode back, in layers:
//
//   - SourceClient is the context-threaded access interface the serving
//     layer uses instead of calling a Source directly. All implementations
//     honor cancellation and deadlines.
//   - Direct adapts a plain Backend (an always-available in-memory source)
//     to SourceClient with context checks and no faults.
//   - Injector wraps a Backend with configurable latency, transient
//     failures and hard outages — the test double for a flaky remote
//     source.
//   - RetryClient (client.go) wraps any SourceClient with exponential
//     backoff + jitter, a per-source circuit breaker, and deadline
//     enforcement.
//
// The webhouse composes these so that a slow or down source degrades to
// the best locally-computable approximate answer (Theorem 3.14) instead of
// blocking or erroring; see webhouse.AnswerComplete.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"incxml/internal/mediator"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// ErrUnavailable reports that a source could not be reached: a hard
// outage, an open circuit breaker, or retries exhausted. Callers match it
// with errors.Is and fall back to a degraded local answer.
var ErrUnavailable = errors.New("faulty: source unavailable")

// ErrTransient is the cause recorded for an injected transient failure; a
// retrying client may safely re-ask.
var ErrTransient = errors.New("faulty: transient source failure")

// SourceError is the error type returned by source access. Transient
// distinguishes blips (retry and the call will likely succeed) from hard
// outages (fail fast, let the breaker open).
type SourceError struct {
	Source    string
	Op        string // "ask" or "asklocal"
	Transient bool
	Err       error
}

func (e *SourceError) Error() string {
	kind := "outage"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("faulty: source %q: %s: %s failure: %v", e.Source, e.Op, kind, e.Err)
}

func (e *SourceError) Unwrap() error { return e.Err }

// IsTransient reports whether err is a retryable source failure. Context
// errors and hard outages are not transient.
func IsTransient(err error) bool {
	var se *SourceError
	return errors.As(err, &se) && se.Transient
}

// Backend is an always-available source of documents: webhouse.Source
// satisfies it. Calls cannot fail — unreliability is layered on top by
// Injector.
type Backend interface {
	Ask(q query.Query) tree.Tree
	AskLocal(lq mediator.LocalQuery) tree.Tree
}

// SourceClient is the serving layer's view of a source: every access
// carries a context and may fail. Implementations must be safe for
// concurrent use.
type SourceClient interface {
	Ask(ctx context.Context, q query.Query) (tree.Tree, error)
	AskLocal(ctx context.Context, lq mediator.LocalQuery) (tree.Tree, error)
}

// Direct adapts a Backend to SourceClient: it only checks the context (so
// an expired deadline is still honored) and never injects faults. It is
// the webhouse's default client for registered sources.
type Direct struct{ B Backend }

// NewDirect wraps a backend in a fault-free client.
func NewDirect(b Backend) Direct { return Direct{B: b} }

func (d Direct) Ask(ctx context.Context, q query.Query) (tree.Tree, error) {
	if err := ctx.Err(); err != nil {
		return tree.Tree{}, err
	}
	return d.B.Ask(q), nil
}

func (d Direct) AskLocal(ctx context.Context, lq mediator.LocalQuery) (tree.Tree, error) {
	if err := ctx.Err(); err != nil {
		return tree.Tree{}, err
	}
	return d.B.AskLocal(lq), nil
}

// InjectorConfig parameterizes an Injector.
type InjectorConfig struct {
	// Latency is added to every call (interruptible by the context).
	Latency time.Duration
	// FailRate is the probability in [0, 1] that a call fails with a
	// transient error (after the latency has elapsed).
	FailRate float64
	// Seed seeds the injector's private RNG, making fault sequences
	// reproducible. The RNG is seeded on the first draw, which gives the
	// same sequence as seeding it at construction.
	Seed int64
}

// Injector wraps a Backend with injectable latency, transient errors and
// hard outages: the simulation of a flaky remote source. Safe for
// concurrent use; the fault sequence is deterministic in (Seed, call
// order).
type Injector struct {
	name    string
	backend Backend

	latency  time.Duration
	failRate float64

	// mu guards rng, which is seeded with seed on the first draw: only an
	// injector with a positive FailRate ever draws, so a fault-free one
	// never pays for a math/rand source.
	mu   sync.Mutex
	rng  *rand.Rand
	seed int64

	down atomic.Bool

	failures atomic.Uint64

	// sleep is the interruptible clock, replaceable in tests.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewInjector wraps a backend with a fault plan.
func NewInjector(name string, b Backend, cfg InjectorConfig) *Injector {
	return &Injector{
		name:     name,
		backend:  b,
		seed:     cfg.Seed,
		latency:  cfg.Latency,
		failRate: cfg.FailRate,
		sleep:    sleepCtx,
	}
}

// SetDown toggles a hard outage: every call fails fast with a
// non-transient ErrUnavailable until the outage is lifted.
func (in *Injector) SetDown(down bool) { in.down.Store(down) }

// Failures reports how many calls the injector failed, outages included
// (for asserting fault plans in tests).
func (in *Injector) Failures() uint64 { return in.failures.Load() }

// fail decides the fate of one call: latency to apply and the error to
// return (nil for success).
func (in *Injector) fail(op string) (time.Duration, error) {
	if in.down.Load() {
		return 0, &SourceError{Source: in.name, Op: op, Transient: false, Err: ErrUnavailable}
	}
	if in.failRate > 0 {
		in.mu.Lock()
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(in.seed))
		}
		flaky := in.rng.Float64() < in.failRate
		in.mu.Unlock()
		if flaky {
			return in.latency, &SourceError{Source: in.name, Op: op, Transient: true, Err: ErrTransient}
		}
	}
	return in.latency, nil
}

func (in *Injector) call(ctx context.Context, op string, eval func() tree.Tree) (tree.Tree, error) {
	if err := ctx.Err(); err != nil {
		return tree.Tree{}, err
	}
	d, failure := in.fail(op)
	if d > 0 {
		if err := in.sleep(ctx, d); err != nil {
			return tree.Tree{}, err
		}
	}
	if failure != nil {
		in.failures.Add(1)
		return tree.Tree{}, failure
	}
	return eval(), nil
}

func (in *Injector) Ask(ctx context.Context, q query.Query) (tree.Tree, error) {
	return in.call(ctx, "ask", func() tree.Tree { return in.backend.Ask(q) })
}

func (in *Injector) AskLocal(ctx context.Context, lq mediator.LocalQuery) (tree.Tree, error) {
	return in.call(ctx, "asklocal", func() tree.Tree { return in.backend.AskLocal(lq) })
}

// sleepCtx sleeps for d or until the context is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
