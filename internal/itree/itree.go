// Package itree implements incomplete trees (Definition 2.7): the paper's
// representation system for XML documents with incomplete information. An
// incomplete tree couples a set N of instantiated data nodes (with labels
// and values) with a conditional tree type over N ∪ Σ describing how known
// and missing information fit together.
//
// The package provides the rep(T) semantics (membership, emptiness,
// witnesses), the certain/possible-prefix decision procedures of
// Theorem 2.8, the unambiguity test of Definition 3.1, and a bounded
// enumeration oracle used throughout the test suite to verify the paper's
// constructions by materializing rep-sets.
package itree

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/matching"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// NodeInfo carries the λ and ν entries for one data node.
type NodeInfo struct {
	Label tree.Label
	Value rat.Rat
}

// T is an incomplete tree (N, λ, ν, τ).
type T struct {
	// Nodes is the data-node set N with its labeling λ and value mapping ν.
	Nodes map[tree.NodeID]NodeInfo
	// Type is the conditional tree type τ over N ∪ Σ: symbols whose σ-target
	// is a node id refer to entries of Nodes.
	Type *ctype.Type
	// MayBeEmpty records that the empty tree belongs to rep(T). Query
	// answers can be empty (Example 2.2 represents this with a root symbol
	// carrying condition false); since data trees proper are nonempty, the
	// possibility is tracked explicitly.
	MayBeEmpty bool

	// memo is set by MarkTrimmed and marks the tree: it has no useless
	// symbols, so TrimUseless may return it as is, and it is never mutated
	// again, so verdicts about it, and its data tree, can be stored on it
	// (memo.go). Clone does not copy it: clones are mutated in place, which
	// would make both stale.
	memo *memo
}

// New returns an empty incomplete tree ready to be populated.
func New() *T {
	return &T{Nodes: map[tree.NodeID]NodeInfo{}, Type: ctype.New()}
}

// MarkTrimmed records that it has no useless symbols, so TrimUseless
// returns it instead of a copy, gives it a memo for Remember, and returns
// it. refine.Compact calls it on its result; a marked tree must not be
// mutated afterwards (mutate a Clone, which is unmarked).
func (it *T) MarkTrimmed() *T {
	if it.memo == nil {
		it.memo = &memo{id: snapshotIDs.Add(1)}
	}
	return it
}

// Clone returns a deep copy. The copy is not marked trimmed.
func (it *T) Clone() *T {
	out := New()
	for n, info := range it.Nodes {
		out.Nodes[n] = info
	}
	out.Type = it.Type.Clone()
	out.MayBeEmpty = it.MayBeEmpty
	return out
}

// EffectiveCond returns the condition actually constraining values of nodes
// typed by symbol s: cond(s), further pinned to ν(n) when s specializes data
// node n (Definition 2.7 requires ν0(n) = ν(n)).
func (it *T) EffectiveCond(s ctype.Symbol) cond.Cond {
	c := it.Type.CondFor(s)
	tg := it.Type.TargetFor(s)
	if tg.IsNode() {
		info, ok := it.Nodes[tg.Node]
		if !ok {
			return cond.False()
		}
		return c.And(cond.Eq(info.Value))
	}
	return c
}

// BaseLabel returns the Σ-label that nodes typed by s carry in the final
// tree: σ(s) for label symbols, λ(σ(s)) for node symbols.
func (it *T) BaseLabel(s ctype.Symbol) (tree.Label, bool) {
	tg := it.Type.TargetFor(s)
	if tg.IsNode() {
		info, ok := it.Nodes[tg.Node]
		if !ok {
			return "", false
		}
		return info.Label, true
	}
	return tg.Label, true
}

// EffectiveType returns τ with every condition replaced by the effective
// one (EffectiveCond), for the generic emptiness/usefulness machinery of
// ctype. Only the condition map is new: roots, µ and σ are shared with τ,
// so the result must be treated as read-only.
func (it *T) EffectiveType() *ctype.Type {
	out := &ctype.Type{Roots: it.Type.Roots, Mu: it.Type.Mu, Sigma: it.Type.Sigma,
		Cond: make(map[ctype.Symbol]cond.Cond, len(it.Type.Sigma))}
	for _, s := range it.Type.Symbols() {
		out.Cond[s] = it.EffectiveCond(s)
	}
	return out
}

// Empty reports whether rep(T) = ∅ (PTIME, as for conditional tree types).
func (it *T) Empty() bool { return !it.MayBeEmpty && it.EffectiveType().Empty() }

// TrimUseless returns a copy with useless symbols (under effective
// conditions) removed; rep is unchanged. Data nodes no longer referenced by
// any symbol are dropped from N. A tree marked by MarkTrimmed is returned
// itself, so callers must treat the result as read-only.
func (it *T) TrimUseless() *T {
	if it.memo != nil {
		return it
	}
	out := New()
	// Remove useless symbols using the generic trimmer over a type whose
	// conditions are effective, then restore the original conditions.
	tmp := it.EffectiveType().TrimUseless()
	for s := range tmp.Sigma {
		if c, ok := it.Type.Cond[s]; ok {
			tmp.Cond[s] = c
		} else {
			delete(tmp.Cond, s)
		}
	}
	out.Type = tmp
	out.MayBeEmpty = it.MayBeEmpty
	referenced := map[tree.NodeID]bool{}
	for _, tg := range tmp.Sigma {
		if tg.IsNode() {
			referenced[tg.Node] = true
		}
	}
	for n, info := range it.Nodes {
		if referenced[n] {
			out.Nodes[n] = info
		}
	}
	return out
}

// Member reports whether the data tree d (over Σ, with persistent node ids)
// belongs to rep(T) per Definition 2.7: there is a typing of d by τ in which
// every node whose id is in N is typed by a symbol specializing exactly that
// node (with matching λ and ν), and no node outside N is typed by a node
// symbol.
func (it *T) Member(d tree.Tree) bool {
	if d.Root == nil {
		return it.MayBeEmpty
	}
	// Definition 2.7 requires each data node to appear at most once.
	counts := map[tree.NodeID]int{}
	d.Walk(func(n *tree.Node) {
		if _, ok := it.Nodes[n.ID]; ok {
			counts[n.ID]++
		}
	})
	for _, c := range counts {
		if c > 1 {
			return false
		}
	}
	memo := memberMemoPool.Get().(map[memberKey]bool)
	clear(memo)
	defer memberMemoPool.Put(memo)
	for _, r := range it.Type.Roots {
		if it.canType(d.Root, r, memo) {
			return true
		}
	}
	return false
}

// memberMemoPool recycles the per-call typing memos of Member, so the
// subproblem table costs no allocation on the hot path.
var memberMemoPool = sync.Pool{
	New: func() any { return make(map[memberKey]bool, 64) },
}

type memberKey struct {
	node tree.NodeID
	sym  ctype.Symbol
}

func (it *T) canType(n *tree.Node, s ctype.Symbol, memo map[memberKey]bool) bool {
	key := memberKey{n.ID, s}
	if v, ok := memo[key]; ok {
		return v
	}
	memo[key] = false
	v := it.canTypeUncached(n, s, memo)
	memo[key] = v
	return v
}

func (it *T) canTypeUncached(n *tree.Node, s ctype.Symbol, memo map[memberKey]bool) bool {
	tg := it.Type.TargetFor(s)
	_, inN := it.Nodes[n.ID]
	if tg.IsNode() {
		info, ok := it.Nodes[tg.Node]
		if !ok || n.ID != tg.Node || n.Label != info.Label || !n.Value.Equal(info.Value) {
			return false
		}
	} else {
		// A node whose id is in N may only be typed by its own node symbol
		// ("n ∈ N if and only if λ0(n) ∈ N").
		if inN || n.Label != tg.Label {
			return false
		}
	}
	if !it.Type.CondFor(s).Holds(n.Value) {
		return false
	}
	for _, a := range it.Type.DisjFor(s) {
		if it.atomMatches(n.Children, a, memo) {
			return true
		}
	}
	return false
}

func (it *T) atomMatches(children []*tree.Node, a ctype.SAtom, memo map[memberKey]bool) bool {
	allowed := make([][]int, len(children))
	for j, c := range children {
		for i, item := range a {
			if it.canType(c, item.Sym, memo) {
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
		lo[i], hi[i] = item.Mult.Bounds()
		if hi[i] < 0 {
			hi[i] = matching.Unbounded
		}
	}
	return matching.Feasible(len(children), allowed, lo, hi)
}

// DataNodeChildren returns, for each data node, the set of data-node ids
// that appear as node-symbol items inside the atoms of its symbols. This is
// the structural parent/child relation among instantiated nodes.
func (it *T) DataNodeChildren() map[tree.NodeID][]tree.NodeID {
	out := map[tree.NodeID][]tree.NodeID{}
	seen := map[[2]tree.NodeID]bool{}
	for s, d := range it.Type.Mu {
		tg := it.Type.TargetFor(s)
		if !tg.IsNode() {
			continue
		}
		for _, a := range d {
			for _, item := range a {
				ctg := it.Type.TargetFor(item.Sym)
				if !ctg.IsNode() {
					continue
				}
				key := [2]tree.NodeID{tg.Node, ctg.Node}
				if !seen[key] {
					seen[key] = true
					out[tg.Node] = append(out[tg.Node], ctg.Node)
				}
			}
		}
	}
	for _, kids := range out {
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	}
	return out
}

// DataTree returns the tree T_d formed by the data nodes (the known prefix).
// For reachable incomplete trees this is a prefix of every tree in rep(T).
// Returns the empty tree when N is empty. A tree marked by MarkTrimmed
// builds its data tree once and returns that same tree to every caller, so
// callers must treat the result as read-only.
func (it *T) DataTree() tree.Tree {
	if it.memo == nil {
		return it.buildDataTree()
	}
	it.memo.dataOnce.Do(func() { it.memo.data = it.buildDataTree() })
	return it.memo.data
}

// buildDataTree builds T_d afresh.
func (it *T) buildDataTree() tree.Tree {
	if len(it.Nodes) == 0 {
		return tree.Empty()
	}
	children := it.DataNodeChildren()
	// Roots: data nodes targeted by root symbols.
	var rootID tree.NodeID
	for _, r := range it.Type.Roots {
		if tg := it.Type.TargetFor(r); tg.IsNode() {
			rootID = tg.Node
			break
		}
	}
	if rootID == "" {
		return tree.Empty()
	}
	var build func(id tree.NodeID) *tree.Node
	build = func(id tree.NodeID) *tree.Node {
		info := it.Nodes[id]
		n := tree.NewID(id, info.Label, info.Value)
		for _, c := range children[id] {
			if _, ok := it.Nodes[c]; ok {
				n.Children = append(n.Children, build(c))
			}
		}
		return n
	}
	return tree.Tree{Root: build(rootID)}
}

// Unambiguous checks conditions (1) and (2) of Definition 3.1: node-symbol
// items have multiplicity 1 and label-symbol items have multiplicity ⋆, and
// distinct ⋆-items with the same base label have mutually exclusive
// conditions. These are the properties the Refine algorithms rely on (they
// make the matching ρ of Lemma 3.3 deterministic).
//
// The paper's condition (3) — a label with multiple ⋆-specializations in an
// atom must also label a data node of that atom — is stated as part of
// Definition 3.1 but is violated by the Lemma 3.2 construction itself (the
// τ̄_m/τ̂_m pairs in µ(τ̂) atoms are two ⋆-specializations of one label with
// no data node). It is therefore checked separately by DataNodeWitness.
func (it *T) Unambiguous() error {
	for s, d := range it.Type.Mu {
		for _, a := range d {
			for _, item := range a {
				tg := it.Type.TargetFor(item.Sym)
				if tg.IsNode() && item.Mult != dtd.One {
					return fmt.Errorf("itree: atom of %q: node item %q has multiplicity %q, want 1",
						s, item.Sym, item.Mult.String())
				}
				if !tg.IsNode() && item.Mult != dtd.Star {
					return fmt.Errorf("itree: atom of %q: label item %q has multiplicity %q, want *",
						s, item.Sym, item.Mult.String())
				}
			}
			// Conditions (2) and (3) over pairs with the same base label.
			for i := 0; i < len(a); i++ {
				for j := i + 1; j < len(a); j++ {
					ti, tj := it.Type.TargetFor(a[i].Sym), it.Type.TargetFor(a[j].Sym)
					if ti.IsNode() || tj.IsNode() || ti.Label != tj.Label {
						continue
					}
					ci, cj := it.Type.CondFor(a[i].Sym), it.Type.CondFor(a[j].Sym)
					if !ci.Disjoint(cj) {
						return fmt.Errorf("itree: atom of %q: specializations %q and %q of label %q have overlapping conditions",
							s, a[i].Sym, a[j].Sym, ti.Label)
					}
				}
			}
		}
	}
	return nil
}

// DataNodeWitness checks condition (3) of Definition 3.1: every label with
// multiple ⋆-specializations in an atom also labels some data node item of
// the same atom. See the Unambiguous doc comment for why this is separate.
func (it *T) DataNodeWitness() error {
	for s, d := range it.Type.Mu {
		for _, a := range d {
			for i := 0; i < len(a); i++ {
				for j := i + 1; j < len(a); j++ {
					ti, tj := it.Type.TargetFor(a[i].Sym), it.Type.TargetFor(a[j].Sym)
					if ti.IsNode() || tj.IsNode() || ti.Label != tj.Label {
						continue
					}
					found := false
					for _, other := range a {
						if otg := it.Type.TargetFor(other.Sym); otg.IsNode() {
							if info, ok := it.Nodes[otg.Node]; ok && info.Label == ti.Label {
								found = true
								break
							}
						}
					}
					if !found {
						return fmt.Errorf("itree: atom of %q: label %q has multiple specializations but no data node with that label",
							s, ti.Label)
					}
				}
			}
		}
	}
	return nil
}

// Validate checks structural well-formedness: the underlying type is
// consistent, every node symbol refers to a known data node, node symbols
// appear only inside atoms of node symbols (Definition 2.7 condition 4's
// "parent label in N"), with multiplicity at most one, and each data node
// has at most one parent data node.
func (it *T) Validate() error {
	if err := it.Type.Validate(); err != nil {
		return err
	}
	parent := map[tree.NodeID]tree.NodeID{}
	for s, d := range it.Type.Mu {
		stg := it.Type.TargetFor(s)
		for _, a := range d {
			seenNodes := map[tree.NodeID]bool{}
			for _, item := range a {
				tg := it.Type.TargetFor(item.Sym)
				if !tg.IsNode() {
					continue
				}
				if _, ok := it.Nodes[tg.Node]; !ok {
					return fmt.Errorf("itree: symbol %q targets unknown data node %q", item.Sym, tg.Node)
				}
				if !stg.IsNode() {
					return fmt.Errorf("itree: node symbol %q appears under label symbol %q", item.Sym, s)
				}
				if item.Mult != dtd.One && item.Mult != dtd.Opt {
					return fmt.Errorf("itree: node item %q has multiplicity %q", item.Sym, item.Mult.String())
				}
				if seenNodes[tg.Node] {
					return fmt.Errorf("itree: data node %q appears twice in one atom of %q", tg.Node, s)
				}
				seenNodes[tg.Node] = true
				if p, ok := parent[tg.Node]; ok && p != stg.Node {
					return fmt.Errorf("itree: data node %q has two parents %q and %q", tg.Node, p, stg.Node)
				}
				parent[tg.Node] = stg.Node
			}
		}
	}
	for _, r := range it.Type.Roots {
		if tg := it.Type.TargetFor(r); tg.IsNode() {
			if _, ok := it.Nodes[tg.Node]; !ok {
				return fmt.Errorf("itree: root symbol %q targets unknown data node %q", r, tg.Node)
			}
		}
	}
	return nil
}

// Witness returns some data tree in rep(T), or false when rep is empty.
func (it *T) Witness() (tree.Tree, bool) {
	eff := it.EffectiveType()
	prod := eff.Productive()
	var build func(s ctype.Symbol) *tree.Node
	build = func(s ctype.Symbol) *tree.Node {
		tg := it.Type.TargetFor(s)
		var n *tree.Node
		if tg.IsNode() {
			info := it.Nodes[tg.Node]
			n = tree.NewID(tg.Node, info.Label, info.Value)
		} else {
			w, _ := it.EffectiveCond(s).Witness()
			n = tree.New(tg.Label, w)
		}
		for _, a := range it.Type.DisjFor(s) {
			ok := true
			for _, item := range a {
				if (item.Mult == dtd.One || item.Mult == dtd.Plus) && !prod[item.Sym] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, item := range a {
				if item.Mult == dtd.One || item.Mult == dtd.Plus {
					n.Children = append(n.Children, build(item.Sym))
				}
			}
			return n
		}
		return n
	}
	for _, r := range it.Type.Roots {
		if prod[r] {
			return tree.Tree{Root: build(r)}, true
		}
	}
	return tree.Tree{}, false
}

// Size returns a representation-size measure: the number of symbols plus the
// total number of items across all atoms plus the number of data nodes.
// This is the quantity whose growth the blow-up experiments track.
func (it *T) Size() int {
	n := len(it.Nodes)
	for _, d := range it.Type.Mu {
		n++
		for _, a := range d {
			n += len(a)
		}
	}
	return n
}

// String renders the incomplete tree: data nodes followed by the type.
func (it *T) String() string {
	var b strings.Builder
	ids := make([]string, 0, len(it.Nodes))
	for id := range it.Nodes {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	b.WriteString("data nodes:\n")
	for _, id := range ids {
		info := it.Nodes[tree.NodeID(id)]
		fmt.Fprintf(&b, "  %s: %s = %s\n", id, info.Label, info.Value)
	}
	b.WriteString("type:\n")
	for _, line := range strings.Split(strings.TrimRight(it.Type.String(), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}
