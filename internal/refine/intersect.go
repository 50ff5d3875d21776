package refine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/tree"
)

// Compatible reports whether two data-node sets agree on their shared nodes
// (same λ and ν for every n ∈ N1 ∩ N2) — the precondition of Lemma 3.3.
func Compatible(a, b map[tree.NodeID]itree.NodeInfo) bool {
	for n, ia := range a {
		if ib, ok := b[n]; ok {
			if ia.Label != ib.Label || !ia.Value.Equal(ib.Value) {
				return false
			}
		}
	}
	return true
}

// ErrIncompatible reports that two incomplete trees disagree on a shared
// data node's label or value — the Lemma 3.3 precondition is violated. In
// an acquisition chain this means a source re-reported a known node
// differently, i.e. the source changed.
var ErrIncompatible = errors.New("refine: incompatible incomplete trees (shared node with different label or value)")

// Intersect computes an unambiguous incomplete tree T with
// rep(T) = rep(a) ∩ rep(b) (Lemma 3.3), in time polynomial in |a| and |b|.
// The inputs must be Compatible (ErrIncompatible otherwise). It is the
// two-factor Product; product symbols are the compatible pairs, named
// "(s1&s2)".
func Intersect(a, b *itree.T) (*itree.T, error) {
	return IntersectBudgeted(a, b, nil)
}

// IntersectBudgeted is Intersect under a cooperative budget, charged as
// Product charges it: one step per product symbol and per joined disjunct
// pair. Although one intersection is polynomial, its inputs grow along a
// Refine chain (Example 3.2), so a chain can still exceed any fixed budget;
// on exhaustion the partial product is discarded and the budget error
// (matching budget.ErrExhausted) is returned. A nil budget is equivalent to
// Intersect.
func IntersectBudgeted(a, b *itree.T, bud *budget.B) (*itree.T, error) {
	if !Compatible(a.Nodes, b.Nodes) {
		return nil, ErrIncompatible
	}
	return Product([]Factor{regular(a), regular(b)}, bud)
}

// Factor is one input of Product: an incomplete tree given by its data
// nodes, its root choices (the root carries one symbol of every choice at
// once), σ (Target), cond (Cond) and the conjuncts of each symbol (one for
// a regular incomplete tree, a CNF for a conjunctive one, Section 3.2).
type Factor struct {
	Nodes      map[tree.NodeID]itree.NodeInfo
	Roots      [][]ctype.Symbol
	MayBeEmpty bool
	Target     func(ctype.Symbol) ctype.Target
	Cond       func(ctype.Symbol) cond.Cond
	// AppendConjuncts appends the conjuncts of a symbol to dst: the
	// children of a node it types satisfy some atom of every conjunct.
	AppendConjuncts func(dst []ctype.Disj, s ctype.Symbol) []ctype.Disj
}

// regular is the factor of a regular incomplete tree: one root choice, one
// conjunct per symbol.
func regular(t *itree.T) Factor {
	ty := t.Type
	return Factor{
		Nodes:      t.Nodes,
		Roots:      [][]ctype.Symbol{ty.Roots},
		MayBeEmpty: t.MayBeEmpty,
		Target:     ty.TargetFor,
		Cond:       ty.CondFor,
		AppendConjuncts: func(dst []ctype.Disj, s ctype.Symbol) []ctype.Disj {
			return append(dst, ty.DisjFor(s))
		},
	}
}

// Product computes the regular incomplete tree representing the
// intersection of the factors' representations: Lemma 3.3 for two regular
// trees, and for one conjunctive tree its expansion (the alternation of
// Section 3.2 materialized, worst-case exponential).
//
// A product symbol is a set of factor symbols that can type one node
// together (check); its condition is the conjunction of theirs. Its
// disjuncts are the k-way joins α1 ⋈ … ⋈ αk over every choice of one atom
// per conjunct of its members: a tuple takes one item from every atom,
// its members must type one node together and agree on values (check (3)
// of the matching ρ), and its multiplicity is the ∧ of theirs (JoinMult).
// A join fails when a required item is in no tuple. Tuples naming the same
// product symbol sum their occurrence bounds, and a sum no multiplicity
// expresses is an error. With two factors the symbols are named
// "(s1&s2)", with one "{s1+…+sk}".
//
// The budget is charged one step per product symbol and per atom choice;
// on exhaustion the partial product is discarded and the budget error is
// returned. A nil budget is unlimited.
func Product(factors []Factor, bud *budget.B) (*itree.T, error) {
	out := itree.New()
	out.MayBeEmpty = true
	for _, f := range factors {
		out.MayBeEmpty = out.MayBeEmpty && f.MayBeEmpty
		for n, info := range f.Nodes {
			out.Nodes[n] = info
		}
	}
	p := &product{in: factors, out: out, ids: map[string]int32{}, sets: []int{0}}
	var choices []rootChoice
	for i, f := range factors {
		for _, c := range f.Roots {
			choices = append(choices, rootChoice{i, c})
		}
	}
	p.roots(choices, ctype.Target{}, map[int32]bool{})
	for id := 0; id < len(p.syms); id++ {
		if err := bud.Charge(1); err != nil {
			return nil, err
		}
		disj, err := p.expand(p.members[p.sets[id]:p.sets[id+1]], bud)
		if err != nil {
			return nil, err
		}
		out.Type.Mu[p.syms[id]] = disj
	}
	return out, nil
}

// member is one factor symbol of a product symbol.
type member struct {
	in  int
	sym ctype.Symbol
}

// tuple is one complete tuple of a join: its ∧-multiplicity and target.
type tuple struct {
	mult dtd.Mult
	tg   ctype.Target
}

// bound accumulates the occurrence bounds of one product symbol in a join.
type bound struct {
	id     int32
	lo, hi int
}

// product is the state of one Product call. Product symbol id has the
// normalized member set members[sets[id]:sets[id+1]]; ids past the one being
// expanded form the queue. The remaining fields are scratch reused across
// joins.
type product struct {
	in      []Factor
	out     *itree.T
	ids     map[string]int32
	syms    []ctype.Symbol
	members []member
	sets    []int

	name   []byte
	cur    []member       // the tuple or root set being extended
	tgs    []ctype.Target // the target of each member of cur
	path   []int          // the item index of each member of cur
	itemTg []ctype.Target // the target of every item of the atoms joined
	tuples []tuple
	picks  []int // the path of every complete tuple
	cover  []bool
	norm   []member
	acc    []bound
	slot   []int32 // per product symbol: 1 + its index in acc, 0 if absent
}

// rootChoice is one root choice of factor in.
type rootChoice struct {
	in   int
	syms []ctype.Symbol
}

// roots adds one root per compatible set that extends p.cur, whose target
// is tg, by a symbol of every remaining root choice.
func (p *product) roots(choices []rootChoice, tg ctype.Target, seen map[int32]bool) {
	if len(choices) == 0 {
		if len(p.cur) == 0 {
			return
		}
		p.norm = normalize(append(p.norm[:0], p.cur...))
		if id := p.intern(p.norm, tg); !seen[id] {
			seen[id] = true
			p.out.Type.Roots = append(p.out.Type.Roots, p.syms[id])
		}
		return
	}
	c, i := choices[0], len(p.cur)
	for _, s := range c.syms {
		p.cur, p.tgs = append(p.cur, member{c.in, s}), append(p.tgs, p.in[c.in].Target(s))
		if tg, ok := p.check(false); ok {
			p.roots(choices[1:], tg, seen)
		}
		p.cur, p.tgs = p.cur[:i], p.tgs[:i]
	}
}

// normalize sorts a member set by factor and symbol and drops repeats.
func normalize(set []member) []member {
	slices.SortFunc(set, func(x, y member) int {
		if c := cmp.Compare(x.in, y.in); c != 0 {
			return c
		}
		return strings.Compare(string(x.sym), string(y.sym))
	})
	return slices.Compact(set)
}

// check reports whether the members of p.cur can type one node together,
// and the σ-target they share — the three cases of Lemma 3.3 for any
// number of members: at most one data node and one label, the node's label
// when both occur. A factor that knows the node types it only by its node
// symbol, so its label symbols may join the node only beside one of its
// node symbols. With values, the node's value must also satisfy every
// label member's condition (check (3) of the matching ρ).
func (p *product) check(values bool) (ctype.Target, bool) {
	var node tree.NodeID
	var label tree.Label
	haveLabel := false
	var pinnedBy uint64 // factors with a node member
	for k, tg := range p.tgs {
		switch {
		case tg.IsNode() && node != "" && tg.Node != node:
			return ctype.Target{}, false
		case tg.IsNode():
			node = tg.Node
			pinnedBy |= 1 << p.cur[k].in
		case haveLabel && tg.Label != label:
			return ctype.Target{}, false
		default:
			label, haveLabel = tg.Label, true
		}
	}
	if node == "" {
		return ctype.LabelTarget(label), true
	}
	info, ok := p.out.Nodes[node]
	if !ok || haveLabel && label != info.Label {
		return ctype.Target{}, false
	}
	for k, m := range p.cur {
		if p.tgs[k].IsNode() {
			continue
		}
		f := p.in[m.in]
		if _, known := f.Nodes[node]; known && pinnedBy&(1<<m.in) == 0 {
			return ctype.Target{}, false
		}
		if values && !f.Cond(m.sym).Holds(info.Value) {
			return ctype.Target{}, false
		}
	}
	return ctype.NodeTarget(node), true
}

// intern returns the id of the product symbol for a normalized, checked
// member set with target tg, adding it to the output and the queue on first
// sight.
func (p *product) intern(set []member, tg ctype.Target) int32 {
	punct := "{+}"
	if len(p.in) > 1 {
		punct = "(&)"
	}
	p.name = append(p.name[:0], punct[0])
	for i, m := range set {
		if i > 0 {
			p.name = append(p.name, punct[1])
		}
		p.name = append(p.name, m.sym...)
	}
	p.name = append(p.name, punct[2])
	if id, ok := p.ids[string(p.name)]; ok {
		return id
	}
	s := ctype.Symbol(p.name)
	id := int32(len(p.syms))
	p.ids[string(s)] = id
	p.syms = append(p.syms, s)
	p.members = append(p.members, set...)
	p.sets = append(p.sets, len(p.members))
	p.slot = append(p.slot, 0)
	c := p.in[set[0].in].Cond(set[0].sym)
	for _, m := range set[1:] {
		c = c.And(p.in[m.in].Cond(m.sym))
	}
	p.out.Type.Sigma[s] = tg
	p.out.Type.Cond[s] = c
	return id
}

// expand computes the disjuncts of a product symbol: one join per choice
// of one atom from every conjunct of its members, the first conjunct
// varying slowest.
func (p *product) expand(set []member, bud *budget.B) (ctype.Disj, error) {
	var conj []ctype.Disj
	var from []int // the factor of each conjunct
	for _, m := range set {
		n := len(conj)
		conj = p.in[m.in].AppendConjuncts(conj, m.sym)
		for range conj[n:] {
			from = append(from, m.in)
		}
	}
	pick := make([]int, len(conj))
	atoms := make([]ctype.SAtom, len(conj))
	for _, d := range conj {
		if len(d) == 0 {
			return nil, nil
		}
	}
	var disj ctype.Disj
	for {
		if err := bud.Charge(1); err != nil {
			return nil, err
		}
		for i, d := range conj {
			atoms[i] = d[pick[i]]
		}
		atom, ok, err := p.join(atoms, from)
		if err != nil {
			return nil, err
		}
		if ok {
			disj = append(disj, atom)
		}
		i := len(pick) - 1
		for ; i >= 0; i-- {
			if pick[i]++; pick[i] < len(conj[i]) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			return disj, nil
		}
	}
}

// join computes the k-way ⋈ of atoms, atoms[i] being an atom of factor
// from[i]; ok is false when the join is ∅.
func (p *product) join(atoms []ctype.SAtom, from []int) (ctype.SAtom, bool, error) {
	if len(atoms) == 0 {
		return ctype.SAtom{}, true, nil // members without conjuncts type leaves
	}
	p.itemTg = p.itemTg[:0]
	for i, a := range atoms {
		for _, it := range a {
			p.itemTg = append(p.itemTg, p.in[from[i]].Target(it.Sym))
		}
	}
	p.tuples, p.picks = p.tuples[:0], p.picks[:0]
	p.walk(atoms, from, 0, dtd.Star, ctype.Target{})
	// Requirements 1 and 2 of the matching ρ: every required item is in
	// some tuple.
	k, total := len(atoms), len(p.itemTg)
	p.cover = slices.Grow(p.cover[:0], total)[:total]
	clear(p.cover)
	for t := range p.tuples {
		base := 0
		for i, j := range p.picks[t*k : t*k+k] {
			p.cover[base+j] = true
			base += len(atoms[i])
		}
	}
	base := 0
	for _, a := range atoms {
		for j, it := range a {
			if lo, _ := it.Mult.Bounds(); lo >= 1 && !p.cover[base+j] {
				return nil, false, nil
			}
		}
		base += len(a)
	}
	acc := p.acc[:0]
	for t, tp := range p.tuples {
		set := p.norm[:0]
		for i, j := range p.picks[t*k : t*k+k] {
			set = append(set, member{from[i], atoms[i][j].Sym})
		}
		set = normalize(set)
		p.norm = set
		id := p.intern(set, tp.tg)
		lo, hi := tp.mult.Bounds()
		if at := p.slot[id]; at > 0 {
			b := &acc[at-1]
			b.lo += lo
			if b.hi < 0 || hi < 0 {
				b.hi = -1
			} else {
				b.hi += hi
			}
		} else {
			p.slot[id] = int32(len(acc)) + 1
			acc = append(acc, bound{id, lo, hi})
		}
	}
	p.acc = acc
	for _, b := range acc {
		p.slot[b.id] = 0
	}
	atom := make(ctype.SAtom, 0, len(acc))
	for _, b := range acc {
		m, ok := dtd.MultOf(b.lo, b.hi)
		if !ok {
			return nil, false, fmt.Errorf("refine: combined multiplicity [%d,%d] not expressible", b.lo, b.hi)
		}
		atom = append(atom, ctype.SItem{Sym: p.syms[b.id], Mult: m})
	}
	return atom, true, nil
}

// walk extends the tuple prefix p.cur by every item of the next atom, whose
// targets start at p.itemTg[base], that keeps it checked, recording each
// complete tuple with its multiplicity and target.
func (p *product) walk(atoms []ctype.SAtom, from []int, base int, mult dtd.Mult, tg ctype.Target) {
	i := len(p.cur)
	if i == len(atoms) {
		p.tuples = append(p.tuples, tuple{mult, tg})
		p.picks = append(p.picks, p.path...)
		return
	}
	for j, it := range atoms[i] {
		p.cur, p.tgs = append(p.cur, member{from[i], it.Sym}), append(p.tgs, p.itemTg[base+j])
		if tg, ok := p.check(true); ok {
			p.path = append(p.path, j)
			p.walk(atoms, from, base+len(atoms[i]), JoinMult(mult, it.Mult), tg)
			p.path = p.path[:i]
		}
		p.cur, p.tgs = p.cur[:i], p.tgs[:i]
	}
}

// JoinMult is the ∧ of Lemma 3.3 on multiplicities (1∧ω = ω∧1 = 1,
// ⋆∧⋆ = ⋆), extended to ? and + by intersecting occurrence bounds.
func JoinMult(m1, m2 dtd.Mult) dtd.Mult {
	lo1, hi1 := m1.Bounds()
	lo2, hi2 := m2.Bounds()
	hi := hi1
	if hi < 0 || (hi2 >= 0 && hi2 < hi) {
		hi = hi2
	}
	m, _ := dtd.MultOf(max(lo1, lo2), hi)
	return m
}
