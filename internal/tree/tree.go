// Package tree implements the paper's data trees: finite rooted unordered
// trees whose nodes carry a persistent identifier, a label from a finite
// alphabet Σ, and a rational data value (Definition 2.1).
//
// Node identifiers are significant throughout the paper (Remark 2.4): answers
// to consecutive queries return the *same* nodes, which is what lets the
// Refine algorithm merge information across queries. Identifiers here are
// strings allocated by the data source.
package tree

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"incxml/internal/matching"
	"incxml/internal/rat"
)

// NodeID identifies a node persistently across queries.
type NodeID string

// Label is an element name from the alphabet Σ.
type Label string

// Node is one node of a data tree. Children are unordered; the slice order
// is incidental and ignored by all comparisons.
type Node struct {
	ID       NodeID
	Label    Label
	Value    rat.Rat
	Children []*Node
}

// Tree is a data tree ⟨t, λ, ν⟩. A nil Root is the empty tree (the paper
// admits empty query answers, e.g. Example 2.2).
type Tree struct {
	Root *Node
}

var idCounter atomic.Uint64

// FreshID allocates a process-unique node identifier with the given prefix.
// Enumeration mints one per materialized node, so the rendering avoids the
// fmt machinery: one allocation for the id string itself.
func FreshID(prefix string) NodeID {
	var arr [64]byte
	buf := arr[:0]
	if len(prefix)+21 > len(arr) {
		buf = make([]byte, 0, len(prefix)+21)
	}
	buf = append(buf, prefix...)
	buf = append(buf, '#')
	buf = strconv.AppendUint(buf, idCounter.Add(1), 10)
	return NodeID(buf)
}

// New returns a node with a fresh identifier.
func New(label Label, value rat.Rat, children ...*Node) *Node {
	return &Node{ID: FreshID(string(label)), Label: label, Value: value, Children: children}
}

// NewID returns a node with an explicit identifier.
func NewID(id NodeID, label Label, value rat.Rat, children ...*Node) *Node {
	return &Node{ID: id, Label: label, Value: value, Children: children}
}

// Empty returns the empty tree.
func Empty() Tree { return Tree{} }

// IsEmpty reports whether the tree has no nodes.
func (t Tree) IsEmpty() bool { return t.Root == nil }

// Size returns the number of nodes.
func (t Tree) Size() int {
	n := 0
	t.Walk(func(*Node) { n++ })
	return n
}

// Depth returns the height of the tree (0 for empty, 1 for a single node).
func (t Tree) Depth() int {
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
	if t.Root == nil {
		return 0
	}
	return rec(t.Root)
}

// Walk visits every node in preorder.
func (t Tree) Walk(f func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// Find returns the node with the given id, or nil.
func (t Tree) Find(id NodeID) *Node {
	var found *Node
	t.Walk(func(n *Node) {
		if n.ID == id {
			found = n
		}
	})
	return found
}

// IDs returns the set of node identifiers in the tree.
func (t Tree) IDs() map[NodeID]bool {
	out := map[NodeID]bool{}
	t.Walk(func(n *Node) { out[n.ID] = true })
	return out
}

// Parents returns a map from each node id to its parent node (root maps to
// nil).
func (t Tree) Parents() map[NodeID]*Node {
	out := map[NodeID]*Node{}
	var rec func(n, parent *Node)
	rec = func(n, parent *Node) {
		out[n.ID] = parent
		for _, c := range n.Children {
			rec(c, n)
		}
	}
	if t.Root != nil {
		rec(t.Root, nil)
	}
	return out
}

// Clone returns a deep copy sharing no nodes with t.
func (t Tree) Clone() Tree {
	var rec func(*Node) *Node
	rec = func(n *Node) *Node {
		out := &Node{ID: n.ID, Label: n.Label, Value: n.Value}
		for _, c := range n.Children {
			out.Children = append(out.Children, rec(c))
		}
		return out
	}
	if t.Root == nil {
		return Tree{}
	}
	return Tree{Root: rec(t.Root)}
}

// Equal reports whether two trees are identical: same node ids with the same
// labels, values, and parent/child relation (children order ignored).
func (t Tree) Equal(u Tree) bool {
	if (t.Root == nil) != (u.Root == nil) {
		return false
	}
	if t.Root == nil {
		return true
	}
	return nodeEqual(t.Root, u.Root)
}

func nodeEqual(a, b *Node) bool {
	if a.ID != b.ID || a.Label != b.Label || !a.Value.Equal(b.Value) || len(a.Children) != len(b.Children) {
		return false
	}
	bs := map[NodeID]*Node{}
	for _, c := range b.Children {
		bs[c.ID] = c
	}
	if len(bs) != len(b.Children) {
		// Duplicate ids on siblings: fall back to matching.
		return nodeIsomorphicWithIDs(a, b)
	}
	for _, c := range a.Children {
		d, ok := bs[c.ID]
		if !ok || !nodeEqual(c, d) {
			return false
		}
	}
	return true
}

// nodeIsomorphicWithIDs handles the degenerate duplicate-sibling-id case via
// bipartite matching of children.
func nodeIsomorphicWithIDs(a, b *Node) bool {
	if a.ID != b.ID || a.Label != b.Label || !a.Value.Equal(b.Value) || len(a.Children) != len(b.Children) {
		return false
	}
	adj := make([][]int, len(a.Children))
	for i, ca := range a.Children {
		for j, cb := range b.Children {
			if nodeIsomorphicWithIDs(ca, cb) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return matching.PerfectLeft(len(a.Children), len(b.Children), adj)
}

// Isomorphic reports whether the trees are equal up to node identifiers
// (labels, values and shape must agree) — the comparison used in
// Theorem 3.6(ii), "up to node identifiers".
func (t Tree) Isomorphic(u Tree) bool {
	if (t.Root == nil) != (u.Root == nil) {
		return false
	}
	if t.Root == nil {
		return true
	}
	var rec func(a, b *Node) bool
	rec = func(a, b *Node) bool {
		if a.Label != b.Label || !a.Value.Equal(b.Value) || len(a.Children) != len(b.Children) {
			return false
		}
		adj := make([][]int, len(a.Children))
		for i, ca := range a.Children {
			for j, cb := range b.Children {
				if rec(ca, cb) {
					adj[i] = append(adj[i], j)
				}
			}
		}
		return matching.PerfectLeft(len(a.Children), len(b.Children), adj)
	}
	return rec(t.Root, u.Root)
}

// IsPrefixOf reports whether t is a prefix of u relative to the node set N
// (Definition 2.1): an injective mapping h from t's nodes to u's nodes that
// is the identity on N, maps root to root, preserves the parent relation,
// and preserves labels and data values.
func (t Tree) IsPrefixOf(u Tree, n map[NodeID]bool) bool {
	if t.Root == nil {
		return true // the empty tree is a prefix of everything
	}
	if u.Root == nil {
		return false
	}
	var canMap func(a, b *Node) bool
	canMap = func(a, b *Node) bool {
		if a.Label != b.Label || !a.Value.Equal(b.Value) {
			return false
		}
		if n[a.ID] && a.ID != b.ID {
			return false
		}
		adj := make([][]int, len(a.Children))
		for i, ca := range a.Children {
			for j, cb := range b.Children {
				if canMap(ca, cb) {
					adj[i] = append(adj[i], j)
				}
			}
		}
		return matching.PerfectLeft(len(a.Children), len(b.Children), adj)
	}
	return canMap(t.Root, u.Root)
}

// PrefixOn returns the prefix of t induced by the node-id set keep, closed
// upward: a node is retained iff it or one of its descendants is in keep and
// all its ancestors are retained. Query answers are built this way
// (the nodes in the image of some valuation, plus ancestors on the path from
// the root).
//
// The result shares nodes with t: where the prefix keeps a node's whole
// subtree, it holds t's node itself (t's root, when it keeps everything), and
// only the nodes that lose a descendant are copied. Treat both as read-only
// from then on; mutate a Clone.
func (t Tree) PrefixOn(keep map[NodeID]bool) Tree {
	var rec func(*Node) *Node
	rec = func(n *Node) *Node {
		var kids []*Node
		whole := true // every child so far is kept whole
		for i, c := range n.Children {
			k := rec(c)
			if whole && k == c {
				continue
			}
			if whole {
				kids, whole = append([]*Node(nil), n.Children[:i]...), false
			}
			if k != nil {
				kids = append(kids, k)
			}
		}
		switch {
		case whole && (keep[n.ID] || len(n.Children) > 0):
			return n
		case !keep[n.ID] && len(kids) == 0:
			return nil
		}
		return &Node{ID: n.ID, Label: n.Label, Value: n.Value, Children: kids}
	}
	if t.Root == nil {
		return Tree{}
	}
	if r := rec(t.Root); r != nil {
		return Tree{Root: r}
	}
	return Tree{}
}

// canonScratch is the pooled working state for Canonical: a byte arena that
// holds every intermediate rendering and a span stack for child sorting. One
// canonical form costs a single allocation (the returned string) instead of
// one per node and per concatenation.
type canonScratch struct {
	arena  []byte
	kids   []canonSpan
	sorter canonSorter
	keep   map[NodeID]bool // non-nil: render only these ids (relative mode)
}

type canonSpan struct{ start, end int }

// canonSorter sorts a window of child spans by the bytes they reference;
// implementing sort.Interface on a pooled struct keeps the sort allocation-free
// (sort.Slice's closure would allocate once per node).
type canonSorter struct {
	arena []byte
	kids  []canonSpan
}

func (c *canonSorter) Len() int      { return len(c.kids) }
func (c *canonSorter) Swap(i, j int) { c.kids[i], c.kids[j] = c.kids[j], c.kids[i] }
func (c *canonSorter) Less(i, j int) bool {
	a, b := c.kids[i], c.kids[j]
	return bytes.Compare(c.arena[a.start:a.end], c.arena[b.start:b.end]) < 0
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// render writes n's canonical form to the end of the arena and returns its
// span. Children render first (into earlier arena segments), get sorted by
// byte comparison — the same order sort.Strings gave the string-based
// implementation — and are then copied into the parent's rendering.
func (s *canonScratch) render(n *Node, withIDs bool) canonSpan {
	mark := len(s.kids)
	for _, c := range n.Children {
		sp := s.render(c, withIDs)
		s.kids = append(s.kids, sp)
	}
	kids := s.kids[mark:]
	s.sorter.arena, s.sorter.kids = s.arena, kids
	sort.Sort(&s.sorter)
	start := len(s.arena)
	if withIDs {
		if s.keep == nil || s.keep[n.ID] {
			s.arena = append(s.arena, n.ID...)
		}
		s.arena = append(s.arena, ':')
	}
	s.arena = append(s.arena, n.Label...)
	s.arena = append(s.arena, '=')
	s.arena = n.Value.Append(s.arena)
	s.arena = append(s.arena, '(')
	for i, sp := range kids {
		if i > 0 {
			s.arena = append(s.arena, ',')
		}
		// Self-append of an earlier arena segment: the source range ends
		// before the destination starts, so the copy cannot overlap.
		s.arena = append(s.arena, s.arena[sp.start:sp.end]...)
	}
	s.arena = append(s.arena, ')')
	s.kids = s.kids[:mark]
	return canonSpan{start, len(s.arena)}
}

func (t Tree) canonical(withIDs bool, keep map[NodeID]bool) string {
	if t.Root == nil {
		return "<empty>"
	}
	s := canonPool.Get().(*canonScratch)
	s.arena = s.arena[:0]
	s.kids = s.kids[:0]
	s.keep = keep
	sp := s.render(t.Root, withIDs)
	out := string(s.arena[sp.start:sp.end])
	s.keep = nil
	canonPool.Put(s)
	return out
}

// Canonical returns a canonical string encoding of the tree ignoring both
// children order and node identifiers; two trees are Isomorphic iff their
// Canonical forms are equal. Used to compare enumerated rep-sets.
func (t Tree) Canonical() string { return t.canonical(false, nil) }

// CanonicalWithIDs is Canonical but includes node identifiers; two trees are
// Equal iff their CanonicalWithIDs forms are equal.
func (t Tree) CanonicalWithIDs() string { return t.canonical(true, nil) }

// CanonicalRelative is CanonicalWithIDs with only the identifiers in keep
// significant: all other ids render as empty. Two trees agree under
// CanonicalRelative iff they are equal up to renaming of the ids outside
// keep — the comparison used for rep-sets of incomplete trees sharing data
// nodes (itree.CanonRelative delegates here).
func (t Tree) CanonicalRelative(keep map[NodeID]bool) string {
	if keep == nil {
		keep = map[NodeID]bool{}
	}
	return t.canonical(true, keep)
}

// String renders the tree in indented form, children sorted by label then id
// for stable output.
func (t Tree) String() string {
	if t.Root == nil {
		return "<empty tree>"
	}
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s=%s [%s]\n", n.Label, n.Value, n.ID)
		kids := append([]*Node(nil), n.Children...)
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].Label != kids[j].Label {
				return kids[i].Label < kids[j].Label
			}
			return kids[i].ID < kids[j].ID
		})
		for _, c := range kids {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return b.String()
}

// Labels returns the set of labels used in the tree.
func (t Tree) Labels() map[Label]bool {
	out := map[Label]bool{}
	t.Walk(func(n *Node) { out[n.Label] = true })
	return out
}

// Validate checks structural invariants: no duplicate node ids and no nil
// children. Construction code paths call this in tests.
func (t Tree) Validate() error {
	seen := map[NodeID]bool{}
	var err error
	var rec func(*Node)
	rec = func(n *Node) {
		if n == nil {
			err = fmt.Errorf("tree: nil node")
			return
		}
		if seen[n.ID] {
			err = fmt.Errorf("tree: duplicate node id %q", n.ID)
			return
		}
		seen[n.ID] = true
		for _, c := range n.Children {
			rec(c)
			if err != nil {
				return
			}
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
	return err
}
