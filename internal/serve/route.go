package serve

import (
	"context"
	"errors"
	"net/http"

	"incxml/internal/budget"
	"incxml/internal/faulty"
	"incxml/internal/webhouse"
)

// route is one answer route's spec: everything that differs between the
// POST routes. The rest — decoding, the step cap, rendering and the status
// of a failure — is the pipeline, written once.
type route struct {
	// name labels the route's metrics, trace and envelope; the route is
	// served at the path it spells ("scatter_local" → POST /scatter/local).
	name string
	// scatter routes address the whole fleet and reject a source.
	scatter bool
	// rawText routes also take a bare ps-query text body.
	rawText bool
	// consistency is the level the route implies; a request restating
	// another one is rejected. Empty on the extension routes.
	consistency string
	// body returns a fresh value of the route's JSON request type.
	body func() wireRequest
	// execute answers a decoded request; it ends in request.render.
	execute func(ctx context.Context, req *request) (*AnswerEnvelope, error)
}

// routes is the answer surface, one spec per POST route: Explore/Refine
// acquisition, Theorem 3.14 local answers, Theorem 3.19 completion (each
// routed to one source or scattered over every shard) and the Section 4
// extension deciders. A down shard degrades only its own sources on the
// scatter routes; the response is still 200.
func (s *Server) routes() []route {
	c := s.cluster
	ps := func() wireRequest { return &AnswerRequest{} }
	ext := func() wireRequest { return &ExtRequest{} }
	return []route{
		{name: "explore", rawText: true, consistency: "explore", body: ps,
			execute: func(ctx context.Context, req *request) (*AnswerEnvelope, error) {
				a, err := c.Explore(ctx, req.source, req.query)
				if errors.Is(err, faulty.ErrUnavailable) {
					if la, lerr := c.AnswerLocally(ctx, req.source, req.query); lerr == nil && la.Fully {
						return req.render(outageAnswer{la, err}, nil)
					}
				}
				return req.render(a, err)
			}},
		{name: "local", rawText: true, consistency: "local", body: ps,
			execute: func(ctx context.Context, req *request) (*AnswerEnvelope, error) {
				return req.render(c.AnswerLocally(ctx, req.source, req.query))
			}},
		{name: "complete", rawText: true, consistency: "complete", body: ps,
			execute: func(ctx context.Context, req *request) (*AnswerEnvelope, error) {
				return req.render(c.AnswerComplete(ctx, req.source, req.query))
			}},
		{name: "scatter_local", scatter: true, rawText: true, consistency: "local", body: ps,
			execute: func(ctx context.Context, req *request) (*AnswerEnvelope, error) {
				return req.render(c.ScatterLocal(ctx, req.query))
			}},
		{name: "scatter_complete", scatter: true, rawText: true, consistency: "complete", body: ps,
			execute: func(ctx context.Context, req *request) (*AnswerEnvelope, error) {
				return req.render(c.ScatterComplete(ctx, req.query))
			}},
		{name: "ext_query", body: ext,
			execute: func(ctx context.Context, req *request) (*AnswerEnvelope, error) {
				return req.render(c.AnswerExtended(ctx, req.source, req.ext))
			}},
		{name: "scatter_ext", scatter: true, body: ext,
			execute: func(ctx context.Context, req *request) (*AnswerEnvelope, error) {
				return req.render(c.ScatterExtended(ctx, req.ext))
			}},
		{name: "ext_reduction", body: func() wireRequest { return &ReductionRequest{} }, execute: s.decide},
	}
}

// outageAnswer is what /explore serves while the source is unreachable for
// a query the knowledge certifies (Corollary 3.15): the local answer, whose
// Exact is then q in every world, and the source error behind the degraded
// flag.
type outageAnswer struct {
	local *webhouse.LocalAnswer
	cause error
}

// pipeline is the request pipeline every answer route shares: decode |
// execute under the request's step cap | render. Only it reads a request
// body, attaches the step cap or chooses an error status.
func (s *Server) pipeline(rt route) func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		req, status, err := rt.decode(w, r)
		if err != nil {
			writeError(w, status, err.Error(), 0)
			return
		}
		env, err := rt.execute(budget.WithStepCap(ctx, req.budget), req)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, env)
	}
}

// decide runs the /ext/reduction decider — 3-SAT satisfiability (Theorem
// 3.6) or DNF validity (Theorem 4.1). The deciders run outside the
// webhouse's budget plumbing, so the step allowance is folded here: the
// configured budget tightened by the request cap, with the served-variables
// ceiling as the unlimited fallback. A definite verdict is always the
// brute-force oracle's; "unknown" means the budget ran out first.
func (s *Server) decide(ctx context.Context, req *request) (*AnswerEnvelope, error) {
	steps := budget.CapSteps(ctx, s.cfg.Budget)
	if steps <= 0 {
		steps = 64 << maxVarsServed
	}
	bud := budget.New(ctx, steps)
	// The error only restates the budget's exhaustion, read just below.
	verdict, _ := req.decide(bud)
	if bud.ExhaustedCause() == budget.CauseDeadline {
		return nil, bud.Err()
	}
	s.reductionVerdicts.With(req.kind, verdict.String()).Inc()
	return req.render(decision{req.kind, verdict}, nil)
}
