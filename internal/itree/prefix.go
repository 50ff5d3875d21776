package itree

import (
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/matching"
	"incxml/internal/tree"
)

// IsPossiblePrefix reports whether some tree in rep(T) has t as a prefix
// relative to T's data nodes (Theorem 2.8; PTIME).
//
// The algorithm follows the paper's proof: after eliminating useless
// symbols, a set Poss(n) of admissible symbols is computed bottom-up over t;
// at internal nodes, children are assigned to multiplicity-atom items by a
// degree-constrained bipartite feasibility test.
func (it *T) IsPossiblePrefix(t tree.Tree) bool {
	if t.Root == nil {
		return !it.Empty()
	}
	if it.Empty() {
		return false
	}
	// Only nonempty trees of rep(T) can have a nonempty prefix.
	if it.EffectiveType().Empty() {
		return false
	}
	w := it.TrimUseless()
	poss := w.prefixSets(t, false)
	for _, r := range w.Type.Roots {
		if poss[t.Root][r] {
			return true
		}
	}
	return false
}

// IsCertainPrefix reports whether rep(T) is nonempty and every tree in
// rep(T) has t as a prefix relative to T's data nodes (Theorem 2.8; PTIME).
func (it *T) IsCertainPrefix(t tree.Tree) bool {
	if t.Root == nil {
		return !it.Empty()
	}
	if it.Empty() {
		return false
	}
	// If the empty tree is a possible world, no nonempty prefix is certain.
	if it.MayBeEmpty {
		return false
	}
	w := it.TrimUseless()
	cert := w.prefixSets(t, true)
	// Every surviving root symbol is useful (nonempty rep), so all must
	// certainly produce t.
	for _, r := range w.Type.Roots {
		if !cert[t.Root][r] {
			return false
		}
	}
	return len(w.Type.Roots) > 0
}

// prefixSets computes Poss(n) (certain=false) or Cert(n) (certain=true) for
// every node of t, bottom-up. The receiver must already be trimmed of
// useless symbols.
func (it *T) prefixSets(t tree.Tree, certain bool) map[*tree.Node]map[ctype.Symbol]bool {
	sets := map[*tree.Node]map[ctype.Symbol]bool{}
	symbols := it.Type.Symbols()
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		for _, c := range n.Children {
			rec(c)
		}
		out := map[ctype.Symbol]bool{}
		for _, s := range symbols {
			if it.symbolAdmits(n, s, certain, sets) {
				out[s] = true
			}
		}
		sets[n] = out
	}
	rec(t.Root)
	return sets
}

// symbolAdmits reports whether the subtree of t rooted at n is a possible
// (or certain) prefix of T restricted to root symbol s.
func (it *T) symbolAdmits(n *tree.Node, s ctype.Symbol, certain bool, sets map[*tree.Node]map[ctype.Symbol]bool) bool {
	tg := it.Type.TargetFor(s)
	_, inN := it.Nodes[n.ID]
	if inN {
		// Prefix mappings are the identity on N: only the node's own symbol
		// can host it.
		if !tg.IsNode() || tg.Node != n.ID {
			return false
		}
	}
	if tg.IsNode() {
		info, ok := it.Nodes[tg.Node]
		if !ok || n.Label != info.Label || !n.Value.Equal(info.Value) {
			return false
		}
		// A t-node outside N may map onto data node tg.Node (injectively,
		// which sibling capacity-1 and tree structure enforce).
	} else if n.Label != tg.Label {
		return false
	}
	eff := it.EffectiveCond(s)
	if certain {
		// All trees must carry exactly this value here.
		p, ok := eff.AsPoint()
		if !ok || !p.Equal(n.Value) {
			return false
		}
	} else if !eff.Holds(n.Value) {
		return false
	}
	disj := it.Type.DisjFor(s)
	if len(disj) == 0 {
		return false
	}
	if certain {
		for _, a := range disj {
			if !it.atomAdmitsCertain(n.Children, a, sets) {
				return false
			}
		}
		return true
	}
	for _, a := range disj {
		if it.atomAdmitsPossible(n.Children, a, sets) {
			return true
		}
	}
	return false
}

// atomAdmitsPossible checks that the children of n can all be hosted by
// items of the atom: each child goes to an item whose symbol is in its Poss
// set, respecting item capacities (1 for node items and ω ∈ {1,?}, unbounded
// for ω ∈ {+,⋆} label items). Lower bounds are irrelevant: required items
// not used by t's children are realized by additional nodes of the target
// tree (all symbols are productive after trimming).
func (it *T) atomAdmitsPossible(children []*tree.Node, a ctype.SAtom, sets map[*tree.Node]map[ctype.Symbol]bool) bool {
	allowed := make([][]int, len(children))
	for j, c := range children {
		for i, item := range a {
			if sets[c][item.Sym] {
				allowed[j] = append(allowed[j], i)
			}
		}
		if len(allowed[j]) == 0 {
			return false
		}
	}
	lo := make([]int, len(a))
	hi := make([]int, len(a))
	for i, item := range a {
		lo[i] = 0
		_, h := item.Mult.Bounds()
		if it.Type.TargetFor(item.Sym).IsNode() {
			h = 1 // a data node occurs at most once (Definition 2.7)
		}
		if h < 0 {
			h = matching.Unbounded
		}
		hi[i] = h
	}
	return matching.Feasible(len(children), allowed, lo, hi)
}

// atomAdmitsCertain checks that every child of n can be injectively matched
// to an item that guarantees the presence of a matching node in every target
// tree: multiplicity 1 or + (so at least one instance exists) with the
// child's Cert set containing the item symbol. Each item backs at most one
// child (only one instance is guaranteed).
func (it *T) atomAdmitsCertain(children []*tree.Node, a ctype.SAtom, sets map[*tree.Node]map[ctype.Symbol]bool) bool {
	adj := make([][]int, len(children))
	for j, c := range children {
		for i, item := range a {
			if item.Mult != dtd.One && item.Mult != dtd.Plus {
				continue
			}
			if sets[c][item.Sym] {
				adj[j] = append(adj[j], i)
			}
		}
		if len(adj[j]) == 0 {
			return false
		}
	}
	return matching.PerfectLeft(len(children), len(a), adj)
}
