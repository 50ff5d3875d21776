// Package extquery implements the Section 4 extensions of ps-queries over
// complete data trees: branching (several same-label siblings), optional
// subtrees ("?"), negated subtrees ("¬"), data-value joins through
// variables with equality and disequality, recursive path-expression edges,
// and constructed answers with Skolem-function heads.
//
// These features are exactly what the paper's hardness and undecidability
// results exercise (Theorems 3.6, 4.1, 4.5, 4.6, 4.7); evaluation here is
// deliberately a complete backtracking search — the blow-up is the point —
// and serves as the ground-truth oracle for the reduction verifiers in the
// reductions package.
package extquery

import (
	"fmt"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/pathre"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// Node is one node of an extended query pattern.
type Node struct {
	// Label is the element name to match; empty means any label (useful
	// with Path edges).
	Label tree.Label
	// Path, when non-nil, makes the edge from the parent a recursive path
	// expression: the node matches any strict descendant whose label path
	// (from the first step, inclusive of the matched node) is in the
	// language. When nil, the node matches direct children with Label.
	Path *pathre.Regex
	// Cond is the selection condition on the matched value.
	Cond cond.Cond
	// Var, when nonempty, binds the matched value to a variable; all nodes
	// sharing a variable must match equal values (data joins).
	Var string
	// Optional marks "?" subtrees: a valuation need not extend into them,
	// but their matches are included in answers when present.
	Optional bool
	// Negated marks "¬" subtrees: the valuation must admit no extension
	// matching them.
	Negated bool
	// Extract marks bar subtree extraction, as for ps-queries.
	Extract bool
	// Children are the pattern children; same-label siblings are allowed
	// (branching).
	Children []*Node
}

// Query is an extended query: a pattern plus variable disequalities.
type Query struct {
	Root *Node
	// Diseq lists pairs of variables whose bound values must differ.
	Diseq [][2]string
}

// N builds a plain pattern node.
func N(label tree.Label, c cond.Cond, children ...*Node) *Node {
	return &Node{Label: label, Cond: c, Children: children}
}

// V builds a pattern node binding a variable.
func V(label tree.Label, variable string, children ...*Node) *Node {
	return &Node{Label: label, Cond: cond.True(), Var: variable, Children: children}
}

// Optional marks a node optional and returns it (builder style).
func Optional(n *Node) *Node { n.Optional = true; return n }

// Negated marks a node negated and returns it.
func Negated(n *Node) *Node { n.Negated = true; return n }

// OnPath attaches a recursive path edge and returns the node.
func OnPath(n *Node, re *pathre.Regex) *Node { n.Path = re; return n }

// Binding is a variable assignment.
type Binding map[string]rat.Rat

func (b Binding) clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// key canonicalizes a binding for deduplication.
func (b Binding) key(vars []string) string {
	s := ""
	for _, v := range vars {
		if val, ok := b[v]; ok {
			s += v + "=" + val.String() + ";"
		} else {
			s += v + "=?;"
		}
	}
	return s
}

// result is one successful valuation: its variable binding and the matched
// node set (including bar extractions and optional matches).
type result struct {
	binding Binding
	nodes   map[tree.NodeID]bool
}

// Vars returns the sorted variables mentioned in the query.
func (q Query) Vars() []string {
	set := map[string]bool{}
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.Var != "" {
			set[n.Var] = true
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	if q.Root != nil {
		rec(q.Root)
	}
	for _, d := range q.Diseq {
		set[d[0]] = true
		set[d[1]] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	// insertion sort (small)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// evaluator threads an optional cooperative budget through the
// backtracking search. A nil budget is unlimited; the first Charge failure
// is recorded in err and every recursion level unwinds on it.
type evaluator struct {
	bud *budget.B
	err error
}

// charge consumes n steps; it reports false once the budget is exhausted,
// letting deep recursions bail out on any path.
func (ev *evaluator) charge(n int64) bool {
	if ev.err != nil {
		return false
	}
	if err := ev.bud.Charge(n); err != nil {
		ev.err = err
		return false
	}
	return true
}

// candidates returns the tree nodes a pattern child can match under tn.
func (ev *evaluator) candidates(tn *tree.Node, pn *Node) []*tree.Node {
	if pn.Path == nil {
		var out []*tree.Node
		for _, c := range tn.Children {
			if !ev.charge(1) {
				return nil
			}
			if pn.Label == "" || c.Label == pn.Label {
				out = append(out, c)
			}
		}
		return out
	}
	var out []*tree.Node
	var walk func(n *tree.Node, m *pathre.Matcher)
	walk = func(n *tree.Node, m *pathre.Matcher) {
		for _, c := range n.Children {
			if !ev.charge(1) {
				return
			}
			next := m.Step(c.Label)
			if next.Dead() {
				continue
			}
			if next.Accepting() && (pn.Label == "" || c.Label == pn.Label) {
				out = append(out, c)
			}
			walk(c, next)
		}
	}
	walk(tn, pn.Path.NewMatcher())
	return out
}

// nodeMatches checks the local constraints of pn at tn under binding b,
// returning the (possibly extended) binding.
func nodeMatches(pn *Node, tn *tree.Node, b Binding) (Binding, bool) {
	if pn.Label != "" && tn.Label != pn.Label {
		return nil, false
	}
	if !pn.Cond.Holds(tn.Value) {
		return nil, false
	}
	if pn.Var != "" {
		if v, ok := b[pn.Var]; ok {
			if !v.Equal(tn.Value) {
				return nil, false
			}
			return b, true
		}
		nb := b.clone()
		nb[pn.Var] = tn.Value
		return nb, true
	}
	return b, true
}

// match enumerates all valuations of the pattern rooted at pn against tn.
func (ev *evaluator) match(pn *Node, tn *tree.Node, b Binding) []result {
	if !ev.charge(1) {
		return nil
	}
	b2, ok := nodeMatches(pn, tn, b)
	if !ok {
		return nil
	}
	results := []result{{binding: b2, nodes: map[tree.NodeID]bool{tn.ID: true}}}
	if pn.Extract {
		// Entire subtree extracted.
		var mark func(n *tree.Node, set map[tree.NodeID]bool)
		mark = func(n *tree.Node, set map[tree.NodeID]bool) {
			set[n.ID] = true
			for _, c := range n.Children {
				mark(c, set)
			}
		}
		for _, r := range results {
			mark(tn, r.nodes)
		}
	}
	// Required children first (threading bindings), then negation filters,
	// then optional enrichment.
	for _, child := range pn.Children {
		if child.Optional || child.Negated {
			continue
		}
		var next []result
		for _, r := range results {
			for _, cand := range ev.candidates(tn, child) {
				for _, sub := range ev.match(child, cand, r.binding) {
					merged := map[tree.NodeID]bool{}
					for id := range r.nodes {
						merged[id] = true
					}
					for id := range sub.nodes {
						merged[id] = true
					}
					next = append(next, result{binding: sub.binding, nodes: merged})
				}
			}
		}
		results = next
		if len(results) == 0 {
			return nil
		}
	}
	for _, child := range pn.Children {
		if !child.Negated {
			continue
		}
		var kept []result
		for _, r := range results {
			blocked := false
			for _, cand := range ev.candidates(tn, child) {
				if len(ev.match(child, cand, r.binding)) > 0 {
					blocked = true
					break
				}
			}
			if !blocked {
				kept = append(kept, r)
			}
		}
		results = kept
		if len(results) == 0 {
			return nil
		}
	}
	for _, child := range pn.Children {
		if !child.Optional {
			continue
		}
		// Optional matches consistent with each surviving binding contribute
		// their nodes; they do not refine sibling bindings.
		for i := range results {
			for _, cand := range ev.candidates(tn, child) {
				for _, sub := range ev.match(child, cand, results[i].binding) {
					for id := range sub.nodes {
						results[i].nodes[id] = true
					}
				}
			}
		}
	}
	return results
}

// satisfiesDiseq checks the query-level variable disequalities (vacuous for
// unbound variables).
func (q Query) satisfiesDiseq(b Binding) bool {
	for _, d := range q.Diseq {
		x, okx := b[d[0]]
		y, oky := b[d[1]]
		if okx && oky && x.Equal(y) {
			return false
		}
	}
	return true
}

// valuations enumerates all root valuations surviving the disequalities.
// When the evaluator's budget is exhausted mid-search the partial result
// is discarded by the callers (ev.err is set).
func (q Query) valuations(t tree.Tree, ev *evaluator) []result {
	if q.Root == nil || t.Root == nil {
		return nil
	}
	var out []result
	for _, r := range ev.match(q.Root, t.Root, Binding{}) {
		if q.satisfiesDiseq(r.binding) {
			out = append(out, r)
		}
	}
	return out
}

// Matches reports whether the query has at least one valuation into t.
func (q Query) Matches(t tree.Tree) bool { return len(q.valuations(t, &evaluator{})) > 0 }

// Answer returns the prefix of t induced by the union of all valuations'
// images (with bar extractions and optional matches included), mirroring
// the ps-query answer semantics.
func (q Query) Answer(t tree.Tree) tree.Tree {
	out, _ := q.answer(t, &evaluator{})
	return out
}

// AnswerBudgeted is Answer under a cooperative budget. When the budget
// exhausts mid-search, the partial answer is discarded and the budget's
// error returned: a truncated valuation set would silently under-report
// the answer, so the caller must degrade explicitly instead.
func (q Query) AnswerBudgeted(t tree.Tree, bud *budget.B) (tree.Tree, error) {
	return q.answer(t, &evaluator{bud: bud})
}

func (q Query) answer(t tree.Tree, ev *evaluator) (tree.Tree, error) {
	keep := map[tree.NodeID]bool{}
	for _, r := range q.valuations(t, ev) {
		for id := range r.nodes {
			keep[id] = true
		}
	}
	if ev.err != nil {
		return tree.Empty(), ev.err
	}
	if len(keep) == 0 {
		return tree.Empty(), nil
	}
	return t.PrefixOn(keep), nil
}

// Bindings returns the distinct variable bindings of all valuations.
func (q Query) Bindings(t tree.Tree) []Binding {
	vars := q.Vars()
	seen := map[string]bool{}
	var out []Binding
	for _, r := range q.valuations(t, &evaluator{}) {
		k := r.binding.key(vars)
		if !seen[k] {
			seen[k] = true
			out = append(out, r.binding)
		}
	}
	return out
}

// HeadNode is one node of a constructed-answer head: a label, a Skolem
// function name, and the variables it is applied to. Two bindings map to
// the same output node iff the Skolem arguments coincide (XML-QL style).
type HeadNode struct {
	Label    tree.Label
	Skolem   string
	Args     []string
	Children []*HeadNode
}

// H builds a head node.
func H(label tree.Label, skolem string, args []string, children ...*HeadNode) *HeadNode {
	return &HeadNode{Label: label, Skolem: skolem, Args: args, Children: children}
}

// Construct evaluates a query with a constructed answer: for every binding
// of the body, the head is instantiated; Skolem identity dedupes output
// nodes. Head values are the value of the first argument variable (or 0).
func (q Query) Construct(t tree.Tree, head *HeadNode) (tree.Tree, error) {
	bindings := q.Bindings(t)
	if len(bindings) == 0 {
		return tree.Empty(), nil
	}
	type instKey string
	nodes := map[instKey]*tree.Node{}
	var build func(h *HeadNode, b Binding, parent *tree.Node) error
	var rootNode *tree.Node
	keyOf := func(h *HeadNode, b Binding) (instKey, error) {
		k := h.Skolem + "("
		for _, a := range h.Args {
			v, ok := b[a]
			if !ok {
				return "", fmt.Errorf("extquery: head references unbound variable %q", a)
			}
			k += v.String() + ","
		}
		return instKey(k + ")"), nil
	}
	build = func(h *HeadNode, b Binding, parent *tree.Node) error {
		k, err := keyOf(h, b)
		if err != nil {
			return err
		}
		n, exists := nodes[k]
		if !exists {
			val := rat.Zero
			if len(h.Args) > 0 {
				val = b[h.Args[0]]
			}
			n = tree.New(h.Label, val)
			nodes[k] = n
			if parent != nil {
				parent.Children = append(parent.Children, n)
			} else if rootNode == nil {
				rootNode = n
			} else {
				return fmt.Errorf("extquery: head produces multiple root instances; root Skolem must not depend on variables")
			}
		}
		for _, c := range h.Children {
			if err := build(c, b, n); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b := range bindings {
		if err := build(head, b, nil); err != nil {
			return tree.Tree{}, err
		}
	}
	return tree.Tree{Root: rootNode}, nil
}
