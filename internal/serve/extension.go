package serve

import (
	"fmt"

	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/pathre"
	"incxml/internal/reductions"
	"incxml/internal/tree"
)

// ExtNode is the wire form of one extended-query pattern node (see
// extquery.Node). Path is a path-expression in the pathre syntax
// ("a b", "a|b", "a*", "." for any label); Cond a selection condition in
// the cond syntax ("< 200", "= 1 | = 2"); both empty by default.
type ExtNode struct {
	Label    string     `json:"label,omitempty"`
	Path     string     `json:"path,omitempty"`
	Cond     string     `json:"cond,omitempty"`
	Var      string     `json:"var,omitempty"`
	Optional bool       `json:"optional,omitempty"`
	Negated  bool       `json:"negated,omitempty"`
	Extract  bool       `json:"extract,omitempty"`
	Children []*ExtNode `json:"children,omitempty"`
}

// ExtRequest is the request body of POST /ext/query and /scatter/ext: a
// Section 4 extended query as a JSON pattern tree plus the usual budget
// cap.
type ExtRequest struct {
	// Source names the target source; empty defaults to ?source=, then
	// "catalog". The scatter route addresses the whole fleet and rejects a
	// source.
	Source string `json:"source,omitempty"`
	// Pattern is the extended pattern tree.
	Pattern *ExtNode `json:"pattern"`
	// Diseq lists pairs of variables whose bound values must differ.
	Diseq [][2]string `json:"diseq,omitempty"`
	// Budget, when positive, caps this request's solver step budget below
	// the server's configured allowance.
	Budget int64 `json:"budget,omitempty"`
}

// Query converts the wire pattern into an extquery.Query, parsing path
// expressions and conditions.
func (req ExtRequest) Query() (extquery.Query, error) {
	if req.Pattern == nil {
		return extquery.Query{}, fmt.Errorf("missing pattern")
	}
	var conv func(n *ExtNode) (*extquery.Node, error)
	conv = func(n *ExtNode) (*extquery.Node, error) {
		out := &extquery.Node{
			Label:    tree.Label(n.Label),
			Var:      n.Var,
			Optional: n.Optional,
			Negated:  n.Negated,
			Extract:  n.Extract,
			Cond:     cond.True(),
		}
		if n.Cond != "" {
			c, err := cond.Parse(n.Cond)
			if err != nil {
				return nil, fmt.Errorf("node %q: bad cond: %w", n.Label, err)
			}
			out.Cond = c
		}
		if n.Path != "" {
			re, err := pathre.Parse(n.Path)
			if err != nil {
				return nil, fmt.Errorf("node %q: bad path: %w", n.Label, err)
			}
			out.Path = re
		}
		for _, c := range n.Children {
			cc, err := conv(c)
			if err != nil {
				return nil, err
			}
			out.Children = append(out.Children, cc)
		}
		return out, nil
	}
	root, err := conv(req.Pattern)
	if err != nil {
		return extquery.Query{}, err
	}
	return extquery.Query{Root: root, Diseq: req.Diseq}, nil
}

// ExtRequestOf renders an extquery.Query into its wire form — the inverse
// of ExtRequest.Query, for clients (and the traffic generator) built on
// the in-process query values.
func ExtRequestOf(source string, q extquery.Query, budget int64) ExtRequest {
	var conv func(n *extquery.Node) *ExtNode
	conv = func(n *extquery.Node) *ExtNode {
		if n == nil {
			return nil
		}
		out := &ExtNode{
			Label:    string(n.Label),
			Var:      n.Var,
			Optional: n.Optional,
			Negated:  n.Negated,
			Extract:  n.Extract,
		}
		if !n.Cond.IsTrue() {
			out.Cond = n.Cond.String()
		}
		if n.Path != nil {
			out.Path = n.Path.String()
		}
		for _, c := range n.Children {
			out.Children = append(out.Children, conv(c))
		}
		return out
	}
	return ExtRequest{Source: source, Pattern: conv(q.Root), Diseq: q.Diseq, Budget: budget}
}

// ReductionRequest is the request body of POST /ext/reduction: a CNF or
// DNF formula for the budgeted reductions-backed deciders (Theorems 3.6
// and 4.1). Clauses hold signed 1-based literals (-2 = ¬x₂); kind "dnf"
// requires exactly three literals per clause.
type ReductionRequest struct {
	// Kind selects the decider: "3sat" (satisfiability) or "dnf"
	// (validity).
	Kind    string  `json:"kind"`
	NumVars int     `json:"numVars"`
	Clauses [][]int `json:"clauses"`
	// Budget, when positive, caps the decider's step budget below the
	// server's configured allowance.
	Budget int64 `json:"budget,omitempty"`
}

// ExtensionInfo is the envelope section of the extension routes: the
// Section 4 class the request fell into and the three-valued verdict.
type ExtensionInfo struct {
	// Class is the query's Section 4 fragment ("ps", "branching",
	// "pathre", "join", "negation") or the reduction kind ("3sat",
	// "dnf").
	Class string `json:"class"`
	// Tractable reports whether the class is inside the Section 4
	// tractability boundary; intractable classes always answer "unknown".
	Tractable bool `json:"tractable"`
	// ExactV is the exactness verdict of an extended answer ("yes" /
	// "unknown"; "no" is never reported), Exact its boolean shadow.
	ExactV string `json:"exactV,omitempty"`
	Exact  bool   `json:"exact,omitempty"`
	// Decision is the reduction decider's verdict ("yes"/"no"/"unknown").
	Decision string `json:"decision,omitempty"`
	// BudgetExhausted flags a degraded (budget-truncated) evaluation.
	BudgetExhausted bool `json:"budgetExhausted,omitempty"`
}

// maxVarsServed bounds served reduction instances: the deciders are
// deliberately brute-force (2^NumVars), so the ceiling keeps even an
// unbudgeted request's worst case around a million masks.
const maxVarsServed = 20

func (e *ExtRequest) compile(req *request) error {
	q, err := e.Query()
	if err != nil {
		return fmt.Errorf("bad extended query: %v", err)
	}
	req.source, req.budget, req.ext = e.Source, e.Budget, q
	return nil
}

// compile checks the formula against the served bounds and builds its
// budgeted decider.
func (rr *ReductionRequest) compile(req *request) error {
	if rr.Kind != "3sat" && rr.Kind != "dnf" {
		return fmt.Errorf("unknown reduction kind %q (supported: 3sat, dnf)", rr.Kind)
	}
	if rr.NumVars < 1 || rr.NumVars > maxVarsServed {
		return fmt.Errorf("numVars must be in [1, %d]", maxVarsServed)
	}
	f := reductions.Formula{NumVars: rr.NumVars}
	d := reductions.DNF{NumVars: rr.NumVars}
	for i, raw := range rr.Clauses {
		c := make([]reductions.Lit, 0, len(raw))
		for _, v := range raw {
			l := reductions.Lit{Var: v, Neg: v < 0}
			if v < 0 {
				l.Var = -v
			}
			if l.Var < 1 || l.Var > rr.NumVars {
				return fmt.Errorf("literal %d out of range", v)
			}
			c = append(c, l)
		}
		switch {
		case rr.Kind == "3sat":
			f.Clauses = append(f.Clauses, c)
		case len(c) != 3:
			return fmt.Errorf("dnf disjunct %d must have exactly 3 literals", i)
		default:
			d.Disjuncts = append(d.Disjuncts, reductions.Disjunct{c[0], c[1], c[2]})
		}
	}
	req.kind, req.budget, req.decide = rr.Kind, rr.Budget, f.SatisfiableBudgeted
	if rr.Kind == "dnf" {
		req.decide = d.ValidBudgeted
	}
	return nil
}
