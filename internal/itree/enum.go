package itree

import (
	"sort"
	"strings"
	"sync"

	"incxml/internal/budget"
	"incxml/internal/ctype"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// Bounds limits the enumeration of rep(T) to a finite universe: data values
// are drawn from Values, + and ⋆ items are instantiated between their lower
// bound and MaxRepeat occurrences, derivations deeper than MaxDepth are cut,
// and at most MaxTrees distinct trees are produced.
//
// Enumeration under bounds is the verification oracle of the test suite:
// rep-set equality of two incomplete trees is checked over a shared value
// universe covering every condition boundary. Equality of the bounded sets
// is necessary for rep equality and, with a boundary-covering universe, a
// strong (though not complete) check of it.
type Bounds struct {
	Values    []rat.Rat
	MaxRepeat int
	MaxDepth  int
	MaxTrees  int
}

// DefaultBounds returns bounds suitable for small verification instances:
// integer values 0..5, at most two repetitions, depth 6, 20000 trees.
func DefaultBounds() Bounds {
	vals := make([]rat.Rat, 6)
	for i := range vals {
		vals[i] = rat.FromInt(int64(i))
	}
	return Bounds{Values: vals, MaxRepeat: 2, MaxDepth: 6, MaxTrees: 20000}
}

// IntBounds returns bounds with integer values lo..hi.
func IntBounds(lo, hi int64, maxRepeat, maxDepth, maxTrees int) Bounds {
	var vals []rat.Rat
	for v := lo; v <= hi; v++ {
		vals = append(vals, rat.FromInt(v))
	}
	return Bounds{Values: vals, MaxRepeat: maxRepeat, MaxDepth: maxDepth, MaxTrees: maxTrees}
}

// enumerator carries the (symbol, depth)-memoized generation state of one
// enumeration pass. Each instance is single-goroutine. Memoized variant
// nodes are never mutated after the store (expandAtom clones children
// before refreshing ids), so one variant list can be shared by many parents.
type enumerator struct {
	it       *T
	b        Bounds
	variants map[genKey][]*tree.Node
	// bud, when non-nil, is charged one step per produced variant and child
	// combination; exhaustion stops the pass, leaving an anytime
	// under-approximation (see EnumerateBudgeted).
	bud *budget.B
}

type genKey struct {
	sym   ctype.Symbol
	depth int
}

// bases returns the possible node shells for symbol s: the pinned data node
// for node symbols, one node per admissible value for label symbols.
func (e *enumerator) bases(s ctype.Symbol) []*tree.Node {
	tg := e.it.Type.TargetFor(s)
	if tg.IsNode() {
		info, ok := e.it.Nodes[tg.Node]
		if !ok {
			return nil
		}
		return []*tree.Node{tree.NewID(tg.Node, info.Label, info.Value)}
	}
	var bases []*tree.Node
	c := e.it.EffectiveCond(s)
	for _, v := range e.b.Values {
		if c.Holds(v) {
			bases = append(bases, tree.New(tg.Label, v))
		}
	}
	return bases
}

// expandAtom appends to out every variant rooted at a base with children
// drawn from one child multiset of atom a; the bool reports MaxTrees
// overflow.
func (e *enumerator) expandAtom(out []*tree.Node, a ctype.SAtom, bases []*tree.Node, depth int) ([]*tree.Node, bool) {
	childSets := e.enumAtom(a, depth)
	var slab nodeSlab
	for _, cs := range childSets {
		for _, base := range bases {
			n := slab.node(base.ID, base.Label, base.Value)
			if len(cs) > 0 {
				n.Children = make([]*tree.Node, len(cs))
				for i, c := range cs {
					n.Children[i] = slab.clone(c)
				}
			}
			// Fresh ids for non-data nodes so siblings differ.
			out = append(out, refreshIDs(n, e.it.Nodes))
			if len(out) > e.b.MaxTrees || e.bud.Charge(1) != nil {
				return out, true
			}
		}
	}
	return out, false
}

func (e *enumerator) gen(s ctype.Symbol, depth int) []*tree.Node {
	if depth > e.b.MaxDepth {
		return nil
	}
	// Memoized on (symbol, depth): recursion strictly increases depth, so
	// gen terminates at the MaxDepth cut.
	if vs, ok := e.variants[genKey{s, depth}]; ok {
		return vs
	}
	bases := e.bases(s)
	if len(bases) == 0 {
		return nil
	}
	var out []*tree.Node
	for _, a := range e.it.Type.DisjFor(s) {
		var overflow bool
		if out, overflow = e.expandAtom(out, a, bases, depth); overflow {
			return out
		}
	}
	e.variants[genKey{s, depth}] = out
	return out
}

// Enumerate materializes the trees of rep(T) within the bounds. Trees
// containing a data node twice are excluded (Definition 2.7). The result is
// deduplicated under CanonRelative with respect to T's data nodes. It is
// EnumerateBudgeted with a nil budget.
func (it *T) Enumerate(b Bounds) []tree.Tree {
	trees, _ := it.EnumerateBudgeted(b, nil)
	return trees
}

// EnumerateBudgeted is the anytime form of Enumerate: it materializes
// members of rep(T) within the bounds until the budget runs out, charging
// one step per produced variant and child combination. The returned slice
// is always a sound under-approximation of the bounded rep-set — every tree
// in it is a genuine member — and err is nil exactly when the enumeration
// completed (the result then equals Enumerate's). On exhaustion err matches
// budget.ErrExhausted and the partial results are still usable, e.g. as
// counterexample candidates. A nil budget makes the enumeration exact.
func (it *T) EnumerateBudgeted(b Bounds, bud *budget.B) ([]tree.Tree, error) {
	e := &enumerator{it: it, b: b, variants: map[genKey][]*tree.Node{}, bud: bud}

	seen := map[string]bool{}
	var result []tree.Tree
	nset := map[tree.NodeID]bool{}
	for id := range it.Nodes {
		nset[id] = true
	}
	if it.MayBeEmpty {
		result = append(result, tree.Empty())
		seen[CanonRelative(tree.Empty(), nset)] = true
	}
	for _, r := range it.Type.Roots {
		for _, root := range e.gen(r, 0) {
			t := tree.Tree{Root: root}
			if dupDataNode(t, it.Nodes) {
				continue
			}
			key := CanonRelative(t, nset)
			if !seen[key] {
				seen[key] = true
				result = append(result, t)
			}
			if len(result) >= b.MaxTrees {
				return result, recordEnum(bud.Err())
			}
		}
	}
	return result, recordEnum(bud.Err())
}

// enumAtom enumerates child multisets satisfying the atom within bounds.
func (e *enumerator) enumAtom(a ctype.SAtom, depth int) [][]*tree.Node {
	b := e.b
	sets := [][]*tree.Node{{}}
	for _, item := range a {
		vars := e.gen(item.Sym, depth+1)
		lo, hi := item.Mult.Bounds()
		if hi < 0 || hi > b.MaxRepeat {
			hi = b.MaxRepeat
			if lo > hi {
				hi = lo
			}
		}
		if e.it.Type.TargetFor(item.Sym).IsNode() && hi > 1 {
			hi = 1
		}
		var expanded [][]*tree.Node
		for count := lo; count <= hi; count++ {
			if count > 0 && len(vars) == 0 {
				continue
			}
			for _, combo := range multichoose(vars, count) {
				for _, prev := range sets {
					next := append(append([]*tree.Node{}, prev...), combo...)
					expanded = append(expanded, next)
					if len(expanded) > b.MaxTrees || e.bud.Charge(1) != nil {
						// Overflow: dropping the whole atom under-approximates
						// the bounded rep-set, which is safe; emitting partial
						// child sets would fabricate non-members.
						return nil
					}
				}
			}
		}
		sets = expanded
		if len(sets) == 0 {
			return nil
		}
	}
	return sets
}

// multichoose returns all multisets of size count drawn from vars
// (combinations with repetition).
func multichoose(vars []*tree.Node, count int) [][]*tree.Node {
	if count == 0 {
		return [][]*tree.Node{{}}
	}
	var out [][]*tree.Node
	var rec func(start int, acc []*tree.Node)
	rec = func(start int, acc []*tree.Node) {
		if len(acc) == count {
			out = append(out, append([]*tree.Node{}, acc...))
			return
		}
		for i := start; i < len(vars); i++ {
			rec(i, append(acc, vars[i]))
		}
	}
	rec(0, nil)
	return out
}

// nodeSlab hands out tree.Nodes from chunked blocks, cutting the
// one-allocation-per-node cost of deep cloning in the enumeration inner loop.
// A slab is single-goroutine (each expandAtom call owns one); the blocks are
// never reused, so the nodes it produced stay valid for the enumeration's
// lifetime and beyond.
type nodeSlab struct{ buf []tree.Node }

const slabBlock = 256

func (s *nodeSlab) node(id tree.NodeID, label tree.Label, v rat.Rat) *tree.Node {
	if len(s.buf) == 0 {
		s.buf = make([]tree.Node, slabBlock)
	}
	n := &s.buf[0]
	s.buf = s.buf[1:]
	n.ID, n.Label, n.Value = id, label, v
	return n
}

func (s *nodeSlab) clone(n *tree.Node) *tree.Node {
	out := s.node(n.ID, n.Label, n.Value)
	if len(n.Children) > 0 {
		out.Children = make([]*tree.Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = s.clone(c)
		}
	}
	return out
}

// refreshIDs gives fresh ids to all nodes that are not data nodes, so that
// duplicated subtree variants do not share ids.
func refreshIDs(n *tree.Node, dataNodes map[tree.NodeID]NodeInfo) *tree.Node {
	if _, ok := dataNodes[n.ID]; !ok {
		n.ID = tree.FreshID(string(n.Label))
	}
	for _, c := range n.Children {
		refreshIDs(c, dataNodes)
	}
	return n
}

// dupScratch recycles dupDataNode's seen-set: the check runs once per
// candidate tree in the enumeration dedup loop, so a per-call map allocation
// is pure overhead.
var dupScratch = sync.Pool{
	New: func() any { return make(map[tree.NodeID]bool, 16) },
}

// dupDataNode reports whether a data node id occurs more than once in t.
func dupDataNode(t tree.Tree, dataNodes map[tree.NodeID]NodeInfo) bool {
	if t.Root == nil {
		return false
	}
	seen := dupScratch.Get().(map[tree.NodeID]bool)
	var rec func(n *tree.Node) bool
	rec = func(n *tree.Node) bool {
		if _, ok := dataNodes[n.ID]; ok {
			if seen[n.ID] {
				return true
			}
			seen[n.ID] = true
		}
		for _, c := range n.Children {
			if rec(c) {
				return true
			}
		}
		return false
	}
	dup := rec(t.Root)
	clear(seen)
	dupScratch.Put(seen)
	return dup
}

// CanonRelative returns a canonical encoding of t in which node identifiers
// in n are significant and all other identifiers are erased. Two trees agree
// under CanonRelative iff they are the same tree up to renaming of non-N
// node ids — the right equality for comparing rep-sets of incomplete trees
// sharing data nodes. The rendering is tree.CanonicalRelative's pooled arena:
// one allocation per call instead of one per node.
func CanonRelative(t tree.Tree, n map[tree.NodeID]bool) string {
	return t.CanonicalRelative(n)
}

// RepSet enumerates rep(T) under the bounds and returns the canonical keys,
// relative to the given node set (pass nil to use T's own data nodes). It is
// RepSetBudgeted with a nil budget.
func (it *T) RepSet(b Bounds, rel map[tree.NodeID]bool) map[string]bool {
	out, _ := it.RepSetBudgeted(b, rel, nil)
	return out
}

// RepSetBudgeted is RepSet over EnumerateBudgeted: the canonical-key set of
// the members enumerated before exhaustion (a subset of the full bounded
// rep-set), plus the exhaustion error if the budget ran out.
func (it *T) RepSetBudgeted(b Bounds, rel map[tree.NodeID]bool, bud *budget.B) (map[string]bool, error) {
	if rel == nil {
		rel = map[tree.NodeID]bool{}
		for id := range it.Nodes {
			rel[id] = true
		}
	}
	trees, err := it.EnumerateBudgeted(b, bud)
	out := map[string]bool{}
	for _, t := range trees {
		out[CanonRelative(t, rel)] = true
	}
	return out, err
}

// EqualRepSets reports whether two incomplete trees have the same bounded
// rep-set, compared relative to the union of their data nodes. The returned
// diff lists up to three canonical keys on each side when they differ.
func EqualRepSets(a, b *T, bounds Bounds) (bool, string) {
	rel := map[tree.NodeID]bool{}
	for id := range a.Nodes {
		rel[id] = true
	}
	for id := range b.Nodes {
		rel[id] = true
	}
	sa := a.RepSet(bounds, rel)
	sb := b.RepSet(bounds, rel)
	return diffRepSets(sa, sb)
}

// diffRepSets compares two canonical-form sets, reporting up to three keys
// on each side when they differ.
func diffRepSets(sa, sb map[string]bool) (bool, string) {
	var onlyA, onlyB []string
	for k := range sa {
		if !sb[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range sb {
		if !sa[k] {
			onlyB = append(onlyB, k)
		}
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return true, ""
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	trim := func(xs []string) string {
		if len(xs) > 3 {
			xs = xs[:3]
		}
		return strings.Join(xs, " ; ")
	}
	return false, "only in A: " + trim(onlyA) + " | only in B: " + trim(onlyB)
}
