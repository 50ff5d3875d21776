package shard

import (
	"context"
	"sort"

	"incxml/internal/extquery"
	"incxml/internal/webhouse"
)

// AnswerExtended routes a Section 4 extended query to the source's shard.
// Extension queries inherit the shard's fault domain exactly like local
// answers: a degraded (budget-exhausted) answer counts against the shard's
// degradation counters.
func (c *Cluster) AnswerExtended(ctx context.Context, source string, q extquery.Query) (*webhouse.ExtendedAnswer, error) {
	g, err := c.Owner(source)
	if err != nil {
		return nil, err
	}
	return g.extOne(ctx, source, q)
}

// extOne is AnswerExtended on one shard with the per-shard counters.
func (g *Group) extOne(ctx context.Context, source string, q extquery.Query) (*webhouse.ExtendedAnswer, error) {
	g.requests.Add(1)
	ea, err := g.wh.AnswerExtended(ctx, source, q)
	if err != nil || ea.BudgetExhausted {
		g.degraded.Add(1)
	}
	return ea, err
}

// ExtAnswer is one source's contribution to an extended scatter.
type ExtAnswer struct {
	Source string
	Shard  int
	Ext    *webhouse.ExtendedAnswer
	// Err is a hard per-source failure (context expiry, solver error).
	Err error
}

// Degraded reports whether the answer is anything less than a completed
// evaluation: a hard failure or a budget-truncated search.
func (ea ExtAnswer) Degraded() bool {
	return ea.Err != nil || (ea.Ext != nil && ea.Ext.BudgetExhausted)
}

func (ea ExtAnswer) source() string { return ea.Source }

// ExtScatter is the gathered result of a cluster-wide extended query: one
// answer per registered source, sorted by source name, plus the per-shard
// health classification. Extended queries carry no scatter-wide merged
// certificate — extended languages are not a strong representation system
// (Section 4), so per-source certificates (present when Corollary 3.15
// applied through a covering ps-query) do not intersect meaningfully.
type ExtScatter struct {
	Answers []ExtAnswer
	Health
}

// ByName returns the answer for a source, or nil.
func (s *ExtScatter) ByName(source string) *ExtAnswer {
	i := sort.Search(len(s.Answers), func(i int) bool { return s.Answers[i].Source >= source })
	if i < len(s.Answers) && s.Answers[i].Source == source {
		return &s.Answers[i]
	}
	return nil
}

// ScatterExtended evaluates an extended query on every registered source
// through the same fan-out core as ScatterLocal: only a dead context aborts
// the whole call, per-source budget exhaustion degrades that source's shard.
func (c *Cluster) ScatterExtended(ctx context.Context, q extquery.Query) (*ExtScatter, error) {
	answers, health, err := fanOut(ctx, c, true, func(g *Group, src string) ExtAnswer {
		ea := ExtAnswer{Source: src, Shard: g.id, Err: ctx.Err()}
		if ea.Err == nil {
			ea.Ext, ea.Err = g.extOne(ctx, src, q)
		}
		return ea
	})
	if err != nil {
		return nil, err
	}
	return &ExtScatter{Answers: answers, Health: health}, nil
}
