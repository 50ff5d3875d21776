package budget

import "context"

// stepCapKey carries a per-request step-allowance cap through a context.
type stepCapKey struct{}

// WithStepCap returns a context carrying a request-scoped cap on the step
// allowance of budgets built for it. The serving layer attaches the cap
// from a request's Budget field; budget factories (the webhouse's
// newBudget, the served reduction deciders) fold it in with CapSteps — a
// client can tighten its own request's budget, never widen the server's.
// steps <= 0 leaves the context unchanged.
func WithStepCap(ctx context.Context, steps int64) context.Context {
	if steps <= 0 {
		return ctx
	}
	return context.WithValue(ctx, stepCapKey{}, steps)
}

// StepCapFromContext reports the request-scoped step cap attached by
// WithStepCap, if any.
func StepCapFromContext(ctx context.Context) (steps int64, ok bool) {
	if ctx == nil {
		return 0, false
	}
	v, ok := ctx.Value(stepCapKey{}).(int64)
	return v, ok
}

// CapSteps folds the request-scoped step cap on ctx into a configured step
// allowance (<= 0 = unlimited): the smaller of the two wins, and a cap on an
// unlimited allowance simply applies. The cap only ever tightens.
func CapSteps(ctx context.Context, configured int64) int64 {
	if cap, ok := StepCapFromContext(ctx); ok && cap > 0 && (configured <= 0 || cap < configured) {
		return cap
	}
	return configured
}
