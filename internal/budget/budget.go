// Package budget implements cooperative resource budgets for the solver's
// exponential decision procedures, and the three-valued verdicts budgeted
// solvers report.
//
// The paper draws a hard tractability boundary: conjunctive-itree emptiness
// is NP-complete (Theorem 3.10) and several extensions are provably
// exponential (Theorems 3.6, 4.1–4.7). A serving layer cannot let one
// adversarial instance pin a goroutine on the wrong side of that boundary,
// so every hot solver loop charges a budget cooperatively and stops —
// soundly — when it is exhausted:
//
//   - a budgeted decision procedure returns Yes or No only when the exact
//     computation completed, and Unknown (with the exhaustion cause)
//     otherwise: it is never wrong when it answers;
//   - a budgeted enumeration returns the members produced so far — an
//     anytime under-approximation;
//   - a budgeted refinement falls back to the lossy-shrinking escape hatch
//     of Proposition 3.13 — an anytime over-approximation.
//
// A budget combines a step allowance (counting solver-defined units such as
// certificates, product symbols, or enumerated variants) with the caller's
// context deadline, polled every pollEvery charges so that hot loops do not
// pay a time syscall per step. Exhaustion is sticky: once a budget reports
// exhausted, every later Charge fails with the same *Error, which lets deep
// recursions unwind without extra bookkeeping. A nil *B is a valid unlimited
// budget, so unbudgeted entry points thread nil instead of branching.
package budget

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"incxml/internal/obs"
)

// exhaustedTotal counts budget exhaustions by cause on the process-wide
// metrics registry: `incxml_budget_exhausted_total{cause}`. Each budget
// contributes at most one increment (exhaustion is sticky), so the counter
// reads as "requests that hit the tractability wall", split by whether the
// step allowance or the caller's deadline gave out first.
var exhaustedTotal = obs.Default().NewCounterVec(
	"incxml_budget_exhausted_total",
	"Budget exhaustions by cause (steps = allowance ran out, deadline = context expired).",
	"cause")

// Cause says why a budget was exhausted.
type Cause uint8

const (
	// CauseNone: the budget is not exhausted.
	CauseNone Cause = iota
	// CauseSteps: the step allowance ran out.
	CauseSteps
	// CauseDeadline: the context was cancelled or its deadline passed.
	CauseDeadline
)

// String renders the cause for logs and serving stats.
func (c Cause) String() string {
	switch c {
	case CauseSteps:
		return "steps"
	case CauseDeadline:
		return "deadline"
	default:
		return "none"
	}
}

// ErrExhausted is the sentinel every budget-exhaustion error matches with
// errors.Is. Callers distinguish it from genuine solver errors: exhaustion
// means "the exact answer did not fit the budget", not "the input is bad".
var ErrExhausted = errors.New("budget: exhausted")

// Error is the sticky exhaustion error of one budget. It matches
// ErrExhausted under errors.Is and carries the cause and the step limit.
type Error struct {
	// Cause is what ran out: steps or the deadline.
	Cause Cause
	// Limit is the step allowance the budget started with (0 = unlimited).
	Limit int64
	// Ctx is the context error behind a CauseDeadline exhaustion.
	Ctx error
}

// Error renders the exhaustion cause and the allowance that ran out.
func (e *Error) Error() string {
	switch e.Cause {
	case CauseDeadline:
		return fmt.Sprintf("budget: exhausted (deadline: %v)", e.Ctx)
	default:
		return fmt.Sprintf("budget: exhausted (%d steps)", e.Limit)
	}
}

// Is matches ErrExhausted.
func (e *Error) Is(target error) bool { return target == ErrExhausted }

// Unwrap exposes the context error of a deadline exhaustion.
func (e *Error) Unwrap() error { return e.Ctx }

// pollEvery is how many charged steps elapse between context polls. Context
// Err takes a lock in the stdlib implementations; polling every step would
// serialize the parallel certificate scan on it.
const pollEvery = 64

// B is a cooperative budget. All methods are safe for concurrent use — one
// budget is shared by every worker evaluating branches of the same request —
// and all are nil-tolerant: a nil *B never exhausts, so unbudgeted callers
// simply pass nil.
type B struct {
	ctx       context.Context
	limit     int64
	remaining atomic.Int64
	sincePoll atomic.Int64
	state     atomic.Pointer[Error]
}

// New returns a budget of the given step allowance tied to ctx's lifetime.
// steps <= 0 means no step limit (the deadline alone bounds the work); a nil
// ctx means no deadline. New(nil, 0) is permitted but pointless — prefer a
// nil *B for the unlimited case.
func New(ctx context.Context, steps int64) *B {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &B{ctx: ctx, limit: steps}
	if steps > 0 {
		b.remaining.Store(steps)
	} else {
		b.remaining.Store(math.MaxInt64)
	}
	return b
}

// Charge consumes n steps and reports whether the budget still holds. The
// first failure is recorded and every subsequent Charge returns the same
// *Error, so deep recursions can unwind on any error path without masking
// the cause. Charge polls the context's cancellation every pollEvery steps.
func (b *B) Charge(n int64) error {
	if b == nil {
		return nil
	}
	if e := b.state.Load(); e != nil {
		return e
	}
	if b.remaining.Add(-n) < 0 {
		return b.exhaust(&Error{Cause: CauseSteps, Limit: b.limit})
	}
	if b.ctx.Done() != nil && b.sincePoll.Add(n) >= pollEvery {
		b.sincePoll.Store(0)
		if err := b.ctx.Err(); err != nil {
			return b.exhaust(&Error{Cause: CauseDeadline, Limit: b.limit, Ctx: err})
		}
	}
	return nil
}

// exhaust records e unless another exhaustion won the race, and returns the
// recorded error. The winning record is also the metrics event: exactly one
// exhaustion is counted per budget, tagged with its cause.
func (b *B) exhaust(e *Error) error {
	if b.state.CompareAndSwap(nil, e) {
		exhaustedTotal.With(e.Cause.String()).Inc()
	}
	return b.state.Load()
}

// Err returns the sticky exhaustion error, or nil while the budget holds.
func (b *B) Err() error {
	if b == nil {
		return nil
	}
	if e := b.state.Load(); e != nil {
		return e
	}
	return nil
}

// Exhausted reports whether the budget has run out.
func (b *B) Exhausted() bool { return b != nil && b.state.Load() != nil }

// ExhaustedCause returns the recorded cause (CauseNone while holding).
func (b *B) ExhaustedCause() Cause {
	if b == nil {
		return CauseNone
	}
	if e := b.state.Load(); e != nil {
		return e.Cause
	}
	return CauseNone
}

// Used reports the steps charged so far — the per-request cost signal the
// webhouse feeds into the `incxml_webhouse_budget_steps_used` histogram and
// per-request traces. Works for step-unlimited budgets too (they count up
// from an effectively infinite allowance).
func (b *B) Used() int64 {
	if b == nil {
		return 0
	}
	initial := b.limit
	if initial <= 0 {
		initial = math.MaxInt64
	}
	used := initial - b.remaining.Load()
	if used < 0 {
		return 0
	}
	return used
}

// Tri is a three-valued verdict: the answer of a budgeted decision
// procedure. Yes and No are exact — a budgeted solver reports them only
// when the full computation finished — and Unknown means the budget was
// exhausted first. The zero value is No so that forgetting to set a Tri
// never fabricates a positive certificate.
type Tri uint8

const (
	// No: the property was decided false.
	No Tri = iota
	// Yes: the property was decided true.
	Yes
	// Unknown: the budget was exhausted before the property was decided.
	Unknown
)

// Of lifts an exactly-computed bool into a Tri.
func Of(v bool) Tri {
	if v {
		return Yes
	}
	return No
}

// Known reports whether the verdict is exact (Yes or No).
func (t Tri) Known() bool { return t == Yes || t == No }

// Bool returns the verdict as (value, known); value is meaningful only when
// known is true.
func (t Tri) Bool() (value, known bool) { return t == Yes, t.Known() }

// String renders the verdict.
func (t Tri) String() string {
	switch t {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the verdict as a JSON string, so serving responses
// and stats read "yes"/"no"/"unknown" instead of bare integers.
func (t Tri) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}
