// Package query implements prefix-selection queries (ps-queries, Section 2):
// tree patterns that browse the input from the root, matching element names
// and selection conditions on data values, and extract the prefix of the
// input covered by all valuations. Leaves may carry a bar (Extract), meaning
// the entire subtree below the matched node is extracted.
//
// The model notes: there is no projection (every node involved in the
// pattern is returned), internal pattern nodes carry plain labels, and no
// two sibling pattern nodes may carry the same element name (with or without
// bar). Queries whose pattern is a single path are "linear" (Lemma 3.12).
package query

import (
	"fmt"
	"sort"
	"strings"

	"incxml/internal/cond"
	"incxml/internal/tree"
)

// Node is one node of a ps-query pattern.
type Node struct {
	// Label is the element name the node matches.
	Label tree.Label
	// Extract marks the bar adornment ā: the whole subtree rooted at the
	// matched input node is extracted. Only valid on pattern leaves.
	Extract bool
	// Cond is the selection condition on the matched node's data value.
	Cond cond.Cond
	// Children are the pattern children; their labels must be pairwise
	// distinct.
	Children []*Node
}

// Query is a ps-query ⟨t, λ, cond⟩.
type Query struct {
	Root *Node
	// key is the canonical rendering stored by Keyed; empty on every other
	// query, which String renders afresh.
	key string
}

// Keyed returns q carrying its canonical key, so that String returns it
// without rendering the pattern again. The pattern must not change
// afterwards: the key is not recomputed, and a changed pattern would answer
// under its old key in every memo. Keyed queries are meant to be shared
// read-only, like the ones a server parses once per query text.
func (q Query) Keyed() Query {
	q.key = q.String()
	return q
}

// N builds a pattern node with the given label, condition, and children.
func N(label tree.Label, c cond.Cond, children ...*Node) *Node {
	return &Node{Label: label, Cond: c, Children: children}
}

// Bar builds a bar-adorned (subtree-extracting) pattern leaf.
func Bar(label tree.Label, c cond.Cond) *Node {
	return &Node{Label: label, Cond: c, Extract: true}
}

// Validate checks the well-formedness constraints of ps-queries: a nonempty
// pattern, bar labels only on leaves, and pairwise distinct sibling labels.
func (q Query) Validate() error {
	if q.Root == nil {
		return fmt.Errorf("query: empty pattern")
	}
	var rec func(*Node) error
	rec = func(n *Node) error {
		if n.Extract && len(n.Children) > 0 {
			return fmt.Errorf("query: bar label %q on internal node", n.Label)
		}
		seen := map[tree.Label]bool{}
		for _, c := range n.Children {
			if seen[c.Label] {
				return fmt.Errorf("query: sibling label %q repeated under %q", c.Label, n.Label)
			}
			seen[c.Label] = true
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(q.Root)
}

// IsLinear reports whether the pattern is a single path — each node has at
// most one child (the restriction of Lemma 3.12).
func (q Query) IsLinear() bool {
	for n := q.Root; n != nil; {
		switch len(n.Children) {
		case 0:
			return true
		case 1:
			n = n.Children[0]
		default:
			return false
		}
	}
	return true
}

// Size returns the number of pattern nodes.
func (q Query) Size() int {
	var rec func(*Node) int
	rec = func(n *Node) int {
		s := 1
		for _, c := range n.Children {
			s += rec(c)
		}
		return s
	}
	if q.Root == nil {
		return 0
	}
	return rec(q.Root)
}

// Depth returns the pattern height.
func (q Query) Depth() int {
	var rec func(*Node) int
	rec = func(n *Node) int {
		d := 0
		for _, c := range n.Children {
			if cd := rec(c); cd > d {
				d = cd
			}
		}
		return d + 1
	}
	if q.Root == nil {
		return 0
	}
	return rec(q.Root)
}

// Walk visits the pattern nodes in preorder.
func (q Query) Walk(f func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if q.Root != nil {
		rec(q.Root)
	}
}

// Subquery returns the ps-query rooted at pattern node m (q_m in the proofs
// of Theorems 3.14 and 3.19).
func Subquery(m *Node) Query { return Query{Root: m} }

// Clone returns a deep copy of the query.
func (q Query) Clone() Query {
	var rec func(*Node) *Node
	rec = func(n *Node) *Node {
		out := &Node{Label: n.Label, Extract: n.Extract, Cond: n.Cond}
		for _, c := range n.Children {
			out.Children = append(out.Children, rec(c))
		}
		return out
	}
	if q.Root == nil {
		return Query{}
	}
	return Query{Root: rec(q.Root)}
}

// Eval computes the answer q(T): the prefix of the input consisting of all
// nodes in the image of some valuation, together with full subtrees below
// nodes matched by bar-adorned pattern leaves.
//
// Because sibling pattern labels are pairwise distinct, valuations decompose
// independently along the pattern: the answer-node set is computed by one
// bottom-up pass (which pattern subtrees can match at which input nodes)
// followed by one top-down pass collecting the images.
func (q Query) Eval(t tree.Tree) tree.Tree {
	if q.Root == nil || t.Root == nil {
		return tree.Empty()
	}
	// Bottom-up: canMatch[m][n] — the pattern subtree at m has a valuation
	// rooted at input node n.
	canMatch := map[*Node]map[*tree.Node]bool{}
	var bottom func(m *Node, n *tree.Node) bool
	bottom = func(m *Node, n *tree.Node) bool {
		if mm, ok := canMatch[m]; ok {
			if v, ok := mm[n]; ok {
				return v
			}
		} else {
			canMatch[m] = map[*tree.Node]bool{}
		}
		ok := m.Label == n.Label && m.Cond.Holds(n.Value)
		if ok {
			for _, mc := range m.Children {
				found := false
				for _, nc := range n.Children {
					if bottom(mc, nc) {
						found = true
						// Keep scanning: memoization fills the table for the
						// top-down pass.
					}
				}
				if !found {
					ok = false
				}
			}
		}
		canMatch[m][n] = ok
		return ok
	}
	if !bottom(q.Root, t.Root) {
		return tree.Empty()
	}
	// Top-down: collect image nodes of all valuations.
	keep := map[tree.NodeID]bool{}
	var markSubtree func(n *tree.Node)
	markSubtree = func(n *tree.Node) {
		keep[n.ID] = true
		for _, c := range n.Children {
			markSubtree(c)
		}
	}
	var top func(m *Node, n *tree.Node)
	top = func(m *Node, n *tree.Node) {
		if m.Extract {
			markSubtree(n)
			return
		}
		keep[n.ID] = true
		for _, mc := range m.Children {
			for _, nc := range n.Children {
				if canMatch[mc][nc] {
					top(mc, nc)
				}
			}
		}
	}
	top(q.Root, t.Root)
	return t.PrefixOn(keep)
}

// Matches reports whether q has at least one valuation into t, i.e. whether
// the answer is nonempty.
func (q Query) Matches(t tree.Tree) bool {
	return !q.Eval(t).IsEmpty()
}

// String renders the query in the indented textual syntax accepted by Parse.
// The rendering is canonical (children in label order), so it is the key
// every memo stores the query's answers under. A Keyed query returns its
// stored key.
func (q Query) String() string {
	if q.key != "" {
		return q.key
	}
	if q.Root == nil {
		return "<empty query>"
	}
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(string(n.Label))
		if n.Extract {
			b.WriteString("!")
		}
		if !n.Cond.IsTrue() {
			fmt.Fprintf(&b, " {%s}", n.Cond)
		}
		b.WriteString("\n")
		kids := append([]*Node(nil), n.Children...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].Label < kids[j].Label })
		for _, c := range kids {
			rec(c, depth+1)
		}
	}
	rec(q.Root, 0)
	return b.String()
}

// Parse reads a query from its indented textual syntax: one node per line,
// two spaces of indentation per level, a label optionally suffixed with "!"
// (bar / subtree extraction), optionally followed by a condition in braces.
//
//	catalog
//	  product
//	    name
//	    price {< 200}
//	    cat {= 1}
//	      subcat
func Parse(src string) (Query, error) {
	type frame struct {
		node  *Node
		depth int
	}
	var root *Node
	var stack []frame
	for lineNo, raw := range strings.Split(src, "\n") {
		if strings.TrimSpace(raw) == "" || strings.HasPrefix(strings.TrimSpace(raw), "#") {
			continue
		}
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent%2 != 0 {
			return Query{}, fmt.Errorf("query: line %d: odd indentation", lineNo+1)
		}
		depth := indent / 2
		text := strings.TrimSpace(raw)
		var condStr string
		if i := strings.IndexByte(text, '{'); i >= 0 {
			if !strings.HasSuffix(text, "}") {
				return Query{}, fmt.Errorf("query: line %d: unterminated condition", lineNo+1)
			}
			condStr = text[i+1 : len(text)-1]
			text = strings.TrimSpace(text[:i])
		}
		n := &Node{Cond: cond.True()}
		if strings.HasSuffix(text, "!") {
			n.Extract = true
			text = text[:len(text)-1]
		}
		if text == "" {
			return Query{}, fmt.Errorf("query: line %d: missing label", lineNo+1)
		}
		n.Label = tree.Label(text)
		if condStr != "" {
			c, err := cond.Parse(condStr)
			if err != nil {
				return Query{}, fmt.Errorf("query: line %d: %v", lineNo+1, err)
			}
			n.Cond = c
		}
		if root == nil {
			if depth != 0 {
				return Query{}, fmt.Errorf("query: line %d: first node must be unindented", lineNo+1)
			}
			root = n
			stack = []frame{{n, 0}}
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 || stack[len(stack)-1].depth != depth-1 {
			return Query{}, fmt.Errorf("query: line %d: bad indentation jump", lineNo+1)
		}
		parent := stack[len(stack)-1].node
		parent.Children = append(parent.Children, n)
		stack = append(stack, frame{n, depth})
	}
	q := Query{Root: root}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// MustParse is Parse that panics on error; for literals in tests and tables.
func MustParse(src string) Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Path builds a linear query from alternating labels and conditions; the
// bar flag applies to the final node. Convenience for tests and the
// Proposition 3.13 construction.
func Path(labels []tree.Label, conds []cond.Cond, barLast bool) Query {
	if len(labels) == 0 {
		return Query{}
	}
	if len(conds) != len(labels) {
		panic("query: Path needs one condition per label")
	}
	var root, cur *Node
	for i, l := range labels {
		n := &Node{Label: l, Cond: conds[i]}
		if root == nil {
			root = n
		} else {
			cur.Children = []*Node{n}
		}
		cur = n
	}
	cur.Extract = barLast
	return Query{Root: root}
}
