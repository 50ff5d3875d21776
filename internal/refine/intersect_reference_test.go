package refine

// The binary Lemma 3.3 product this package shipped before Product served
// both Intersect and the conjunctive expansion. It is kept verbatim as the
// reference that TestProductMatchesReference pins the two-factor Product to:
// the same tree, named the same way, at the same budget cost.

import (
	"incxml/internal/budget"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
)

// referencePairSym names the product symbol for (s1, s2).
func referencePairSym(s1, s2 ctype.Symbol) ctype.Symbol {
	return ctype.Symbol("(" + string(s1) + "&" + string(s2) + ")")
}

// referenceIntersect is IntersectBudgeted as it was: a pair product charged
// one step per product symbol and per joined disjunct pair.
func referenceIntersect(a, b *itree.T, bud *budget.B) (*itree.T, error) {
	if !Compatible(a.Nodes, b.Nodes) {
		return nil, ErrIncompatible
	}
	out := itree.New()
	out.MayBeEmpty = a.MayBeEmpty && b.MayBeEmpty
	for n, info := range a.Nodes {
		out.Nodes[n] = info
	}
	for n, info := range b.Nodes {
		out.Nodes[n] = info
	}
	ty := out.Type

	// compatible implements the three cases of the lemma; it returns the
	// σ-target of the pair.
	compatible := func(s1, s2 ctype.Symbol) (ctype.Target, bool) {
		t1 := a.Type.TargetFor(s1)
		t2 := b.Type.TargetFor(s2)
		switch {
		case t1.IsNode() && t2.IsNode():
			if t1.Node != t2.Node {
				return ctype.Target{}, false
			}
			return t1, true
		case t1.IsNode():
			// (ii): node known only to a; b must see it as a plain label.
			if _, shared := b.Nodes[t1.Node]; shared {
				return ctype.Target{}, false
			}
			info := a.Nodes[t1.Node]
			if t2.Label != info.Label {
				return ctype.Target{}, false
			}
			return t1, true
		case t2.IsNode():
			// (iii): symmetric.
			if _, shared := a.Nodes[t2.Node]; shared {
				return ctype.Target{}, false
			}
			info := b.Nodes[t2.Node]
			if t1.Label != info.Label {
				return ctype.Target{}, false
			}
			return t2, true
		default:
			if t1.Label != t2.Label {
				return ctype.Target{}, false
			}
			return t1, true
		}
	}

	// Discover reachable pairs from the root pairs, building µ on the way.
	type pair struct{ s1, s2 ctype.Symbol }
	queue := []pair{}
	seen := map[pair]bool{}
	add := func(s1, s2 ctype.Symbol) (ctype.Symbol, bool) {
		tg, ok := compatible(s1, s2)
		if !ok {
			return "", false
		}
		ps := referencePairSym(s1, s2)
		if !seen[pair{s1, s2}] {
			seen[pair{s1, s2}] = true
			ty.Sigma[ps] = tg
			ty.Cond[ps] = a.Type.CondFor(s1).And(b.Type.CondFor(s2))
			queue = append(queue, pair{s1, s2})
		}
		return ps, true
	}
	for _, r1 := range a.Type.Roots {
		for _, r2 := range b.Type.Roots {
			if ps, ok := add(r1, r2); ok {
				ty.Roots = append(ty.Roots, ps)
			}
		}
	}

	// valueCompatible implements check (3) of the matching ρ: a data node
	// known to one side must satisfy the other side's item condition.
	valueCompatible := func(s1, s2 ctype.Symbol) bool {
		t1 := a.Type.TargetFor(s1)
		t2 := b.Type.TargetFor(s2)
		if t1.IsNode() && !t2.IsNode() {
			return b.Type.CondFor(s2).Holds(a.Nodes[t1.Node].Value)
		}
		if t2.IsNode() && !t1.IsNode() {
			return a.Type.CondFor(s1).Holds(b.Nodes[t2.Node].Value)
		}
		return true
	}

	for len(queue) > 0 {
		if err := bud.Charge(1); err != nil {
			return nil, err
		}
		p := queue[0]
		queue = queue[1:]
		ps := referencePairSym(p.s1, p.s2)
		var disj ctype.Disj
		for _, a1 := range a.Type.DisjFor(p.s1) {
			for _, a2 := range b.Type.DisjFor(p.s2) {
				if err := bud.Charge(1); err != nil {
					return nil, err
				}
				if atom, ok := referenceJoinAtoms(a, b, a1, a2, compatible, valueCompatible, add); ok {
					disj = append(disj, atom)
				}
			}
		}
		ty.Mu[ps] = disj
	}
	return out, nil
}

// referenceJoinAtoms computes α1 ⋈ α2. The matching ρ is the set of all compatible,
// value-compatible item pairs; the join fails (∅) when a required (ω = 1)
// item on either side has no partner. Multiplicities combine by
// 1∧ω = ω∧1 = 1 and ⋆∧⋆ = ⋆.
func referenceJoinAtoms(a, b *itree.T, a1, a2 ctype.SAtom,
	compatible func(ctype.Symbol, ctype.Symbol) (ctype.Target, bool),
	valueCompatible func(ctype.Symbol, ctype.Symbol) bool,
	add func(ctype.Symbol, ctype.Symbol) (ctype.Symbol, bool)) (ctype.SAtom, bool) {

	matched1 := make([]bool, len(a1))
	matched2 := make([]bool, len(a2))
	type rhoPair struct {
		i, j int
	}
	var rho []rhoPair
	for i, it1 := range a1 {
		for j, it2 := range a2 {
			if _, ok := compatible(it1.Sym, it2.Sym); !ok {
				continue
			}
			if !valueCompatible(it1.Sym, it2.Sym) {
				continue
			}
			rho = append(rho, rhoPair{i, j})
			matched1[i] = true
			matched2[j] = true
		}
	}
	// Requirements 1 and 2 of the matching definition: every required item
	// must have a partner. (Unambiguous trees use multiplicity 1 exactly for
	// data-node items; + is treated as required too, for robustness on
	// type-constrained inputs.)
	for i, it1 := range a1 {
		if (it1.Mult == dtd.One || it1.Mult == dtd.Plus) && !matched1[i] {
			return nil, false
		}
	}
	for j, it2 := range a2 {
		if (it2.Mult == dtd.One || it2.Mult == dtd.Plus) && !matched2[j] {
			return nil, false
		}
	}
	var atom ctype.SAtom
	for _, rp := range rho {
		ps, ok := add(a1[rp.i].Sym, a2[rp.j].Sym)
		if !ok {
			continue
		}
		atom = append(atom, ctype.SItem{Sym: ps, Mult: referenceJoinMult(a1[rp.i].Mult, a2[rp.j].Mult)})
	}
	return atom, true
}

// referenceJoinMult is the ∧ operation on multiplicities. For the {1, ⋆} alphabet of
// unambiguous trees it matches the paper (1∧ω = 1, ⋆∧⋆ = ⋆); it extends to
// ?, + by intersecting occurrence bounds, so that type-constrained trees can
// also be intersected.
func referenceJoinMult(m1, m2 dtd.Mult) dtd.Mult {
	lo1, hi1 := m1.Bounds()
	lo2, hi2 := m2.Bounds()
	lo := max(lo1, lo2)
	hi := hi1
	if hi < 0 || (hi2 >= 0 && hi2 < hi) {
		hi = hi2
	}
	switch {
	case lo == 1 && hi == 1:
		return dtd.One
	case lo == 0 && hi == 1:
		return dtd.Opt
	case lo == 1 && hi < 0:
		return dtd.Plus
	case lo == 0 && hi < 0:
		return dtd.Star
	default:
		// Bounds like [1,1] are covered above; anything else (e.g. lo>hi)
		// cannot arise from the four multiplicities.
		return dtd.One
	}
}
