package refine

// The compaction this package shipped before mergeCongruent worked on dense
// symbol indices: unsat-pruning, trimming, a merge that partitions by
// printed signatures, and a renaming pass, each rebuilding the tree. It is
// kept verbatim as the reference that TestCompactMatchesReference pins
// Compact's output to. It panics where an atom cannot be merged (see
// TestCompactUnmergeableAtom).

import (
	"fmt"
	"sort"
	"strings"

	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
)

// referenceCompact removes symbols with unsatisfiable effective conditions,
// trims useless symbols, merges congruent symbols and renames the survivors,
// each step on a fresh copy of the tree.
func referenceCompact(t *itree.T) *itree.T {
	out := referenceDropUnsatisfiable(t)
	out = out.TrimUseless()
	out = referenceMergeCongruent(out)
	out = referenceShortNames(out)
	return out.MarkTrimmed()
}

// referenceShortNames renames every symbol to a short canonical name. Product
// symbols from Lemma 3.3 concatenate their factors' names, so over a chain
// of n Refine steps raw names grow to length 2ⁿ; renaming after each step
// keeps the representation size proportional to the symbol count.
func referenceShortNames(t *itree.T) *itree.T {
	syms := t.Type.Symbols()
	rename := make(map[ctype.Symbol]ctype.Symbol, len(syms))
	for i, s := range syms {
		// Node-targeted symbols keep a recognizable prefix for debugging.
		if tg := t.Type.TargetFor(s); tg.IsNode() {
			rename[s] = ctype.Symbol(fmt.Sprintf("n%d@%s", i, tg.Node))
		} else {
			rename[s] = ctype.Symbol(fmt.Sprintf("q%d", i))
		}
	}
	out := t.Clone()
	out.Type = out.Type.Rename(func(s ctype.Symbol) ctype.Symbol { return rename[s] })
	return out
}

// referenceDropUnsatisfiable removes symbols whose effective condition is empty:
// items referencing them are deleted when optional, and disjuncts requiring
// them are deleted.
func referenceDropUnsatisfiable(t *itree.T) *itree.T {
	dead := map[ctype.Symbol]bool{}
	for _, s := range t.Type.Symbols() {
		if !t.EffectiveCond(s).Satisfiable() {
			dead[s] = true
		}
	}
	if len(dead) == 0 {
		return t.Clone()
	}
	out := t.Clone()
	ty := out.Type
	var roots []ctype.Symbol
	for _, r := range ty.Roots {
		if !dead[r] {
			roots = append(roots, r)
		}
	}
	ty.Roots = roots
	for s, disj := range ty.Mu {
		if dead[s] {
			delete(ty.Mu, s)
			continue
		}
		var nd ctype.Disj
		for _, atom := range disj {
			var na ctype.SAtom
			ok := true
			for _, item := range atom {
				if !dead[item.Sym] {
					na = append(na, item)
					continue
				}
				if lo, _ := item.Mult.Bounds(); lo > 0 {
					ok = false
					break
				}
			}
			if ok {
				nd = append(nd, na)
			}
		}
		ty.Mu[s] = nd
	}
	for s := range dead {
		delete(ty.Sigma, s)
		delete(ty.Cond, s)
		delete(ty.Mu, s)
	}
	return out
}

// referenceMergeCongruent merges symbols that are indistinguishable: same σ-target,
// same effective condition, and the same multiplicity structure after
// rewriting through the merge (greatest fixpoint, as in automaton
// minimization via partition refinement).
func referenceMergeCongruent(t *itree.T) *itree.T {
	syms := t.Type.Symbols()
	// Initial partition: by target and condition normal form.
	block := map[ctype.Symbol]int{}
	sigOf := map[string]int{}
	for _, s := range syms {
		sig := t.Type.TargetFor(s).String() + "|" + t.EffectiveCond(s).String()
		id, ok := sigOf[sig]
		if !ok {
			id = len(sigOf)
			sigOf[sig] = id
		}
		block[s] = id
	}
	// Refine until stable.
	for {
		next := map[ctype.Symbol]int{}
		nextSig := map[string]int{}
		for _, s := range syms {
			sig := fmt.Sprintf("%d|%s", block[s], referenceDisjSignature(t.Type.DisjFor(s), block))
			id, ok := nextSig[sig]
			if !ok {
				id = len(nextSig)
				nextSig[sig] = id
			}
			next[s] = id
		}
		if len(nextSig) == len(sigOf) {
			break
		}
		block = next
		sigOf = nextSig
	}
	// Pick a representative per block and rewrite.
	repOf := map[int]ctype.Symbol{}
	for _, s := range syms {
		if cur, ok := repOf[block[s]]; !ok || s < cur {
			repOf[block[s]] = s
		}
	}
	rewrite := func(s ctype.Symbol) ctype.Symbol { return repOf[block[s]] }
	out := itree.New()
	out.MayBeEmpty = t.MayBeEmpty
	for n, info := range t.Nodes {
		out.Nodes[n] = info
	}
	ty := out.Type
	seenRoot := map[ctype.Symbol]bool{}
	for _, r := range t.Type.Roots {
		nr := rewrite(r)
		if !seenRoot[nr] {
			seenRoot[nr] = true
			ty.Roots = append(ty.Roots, nr)
		}
	}
	for _, s := range syms {
		rep := rewrite(s)
		if _, done := ty.Sigma[rep]; done {
			continue
		}
		ty.Sigma[rep] = t.Type.TargetFor(s)
		ty.Cond[rep] = t.Type.CondFor(s)
		var nd ctype.Disj
		seenAtom := map[string]bool{}
		for _, atom := range t.Type.DisjFor(s) {
			na, ok := referenceRewriteAtom(atom, rewrite)
			if !ok {
				// Duplicates with inexpressible combined multiplicity: keep
				// the original atom unmerged (sound; merely less compact).
				na = atom.Clone()
			}
			key := na.String()
			if !seenAtom[key] {
				seenAtom[key] = true
				nd = append(nd, na)
			}
		}
		ty.Mu[rep] = nd
	}
	return out
}

// referenceDisjSignature is a canonical string for a disjunction with symbols
// replaced by block ids.
func referenceDisjSignature(d ctype.Disj, block map[ctype.Symbol]int) string {
	atoms := make([]string, len(d))
	for i, a := range d {
		items := make([]string, len(a))
		for j, item := range a {
			items[j] = fmt.Sprintf("%d^%s", block[item.Sym], item.Mult.String())
		}
		sort.Strings(items)
		atoms[i] = strings.Join(items, ",")
	}
	sort.Strings(atoms)
	return strings.Join(atoms, " v ")
}

// referenceRewriteAtom maps item symbols through the merge, combining duplicates by
// adding occurrence bounds. It fails when a combined bound is not
// expressible as one of the four multiplicities.
func referenceRewriteAtom(a ctype.SAtom, rewrite func(ctype.Symbol) ctype.Symbol) (ctype.SAtom, bool) {
	type bounds struct{ lo, hi int } // hi < 0 means unbounded
	acc := map[ctype.Symbol]*bounds{}
	var order []ctype.Symbol
	for _, item := range a {
		s := rewrite(item.Sym)
		lo, hi := item.Mult.Bounds()
		if b, ok := acc[s]; ok {
			b.lo += lo
			if b.hi < 0 || hi < 0 {
				b.hi = -1
			} else {
				b.hi += hi
			}
		} else {
			acc[s] = &bounds{lo, hi}
			order = append(order, s)
		}
	}
	var out ctype.SAtom
	for _, s := range order {
		b := acc[s]
		var m dtd.Mult
		switch {
		case b.lo == 0 && b.hi == 1:
			m = dtd.Opt
		case b.lo == 1 && b.hi == 1:
			m = dtd.One
		case b.lo == 0 && b.hi < 0:
			m = dtd.Star
		case b.lo == 1 && b.hi < 0:
			m = dtd.Plus
		default:
			return nil, false
		}
		out = append(out, ctype.SItem{Sym: s, Mult: m})
	}
	return out, true
}
