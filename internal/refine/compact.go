package refine

import (
	"encoding/binary"
	"maps"
	"slices"
	"strconv"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
)

// Compact shrinks an incomplete tree without changing rep: it trims useless
// symbols (which removes those with unsatisfiable effective conditions),
// then merges congruent symbols (same target, same condition, same
// multiplicity structure up to the merge) and gives the survivors short
// canonical names. Compaction is what keeps the Refine chain polynomial for
// linear queries (Lemma 3.12): there, conditions at each level partition Q,
// so the product symbols with empty conditions die and the rest stay linear
// in the query-answer sequence.
//
// The result has no useless symbols and is marked so (itree.MarkTrimmed):
// the trims that answering, certification and completion run first are
// free on it. Mutate only a Clone of it.
func Compact(t *itree.T) *itree.T {
	return mergeCongruent(t.TrimUseless()).MarkTrimmed()
}

// item is an atom item over dense symbol indices.
type item struct {
	sym  int32
	mult dtd.Mult
}

// mergeCongruent merges symbols that are indistinguishable: same σ-target,
// same effective condition, and the same multiplicity structure after
// rewriting through the merge (greatest fixpoint, as in automaton
// minimization via partition refinement). Symbols are numbered densely in
// name order, blocks are integers and signatures are byte strings over
// block ids.
//
// Each block is represented by its least symbol. The result names the
// surviving symbols by their rank in name order: q<rank>, or n<rank>@<node>
// for node symbols. Product symbols from Lemma 3.3 concatenate their
// factors' names, so over a chain of n Refine steps raw names grow to
// length 2ⁿ; renaming on every step keeps the representation size
// proportional to the symbol count.
func mergeCongruent(t *itree.T) *itree.T {
	ty := t.Type
	syms := make([]ctype.Symbol, 0, len(ty.Sigma))
	for s := range ty.Sigma {
		syms = append(syms, s)
	}
	slices.Sort(syms)
	idx := make(map[ctype.Symbol]int32, len(syms))
	for i, s := range syms {
		idx[s] = int32(i)
	}
	mu := make([][][]item, len(syms))
	for i, s := range syms {
		d := ty.DisjFor(s)
		mu[i] = make([][]item, len(d))
		for j, a := range d {
			da := make([]item, len(a))
			for k, it := range a {
				da[k] = item{idx[it.Sym], it.Mult}
			}
			mu[i][j] = da
		}
	}

	// Initial partition: by target and effective condition.
	block := make([]int32, len(syms))
	sigID := map[string]int32{}
	var buf []byte
	for i, s := range syms {
		tg := ty.Sigma[s]
		buf = append(binary.AppendUvarint(buf[:0], uint64(len(tg.Node))), tg.Node...)
		buf = append(binary.AppendUvarint(buf, uint64(len(tg.Label))), tg.Label...)
		block[i] = intern(sigID, t.EffectiveCond(s).Set().AppendKey(buf))
	}

	// Refine until stable: a symbol's signature is its block followed by
	// the sorted ids of its atoms, and an atom's id names its sorted
	// (block, multiplicity) pairs. Both are multisets, as duplicates count.
	blocks := len(sigID)
	next := make([]int32, len(syms))
	atomID := map[string]int32{}
	var pairs []uint64
	var ids []int32
	for {
		clear(atomID)
		clear(sigID)
		for i := range syms {
			ids = ids[:0]
			for _, a := range mu[i] {
				pairs = pairs[:0]
				for _, it := range a {
					pairs = append(pairs, uint64(block[it.sym])<<8|uint64(it.mult))
				}
				slices.Sort(pairs)
				buf = buf[:0]
				for _, p := range pairs {
					buf = binary.AppendUvarint(buf, p)
				}
				ids = append(ids, intern(atomID, buf))
			}
			slices.Sort(ids)
			buf = binary.AppendUvarint(buf[:0], uint64(block[i]))
			for _, id := range ids {
				buf = binary.AppendUvarint(buf, uint64(id))
			}
			next[i] = intern(sigID, buf)
		}
		if len(sigID) == blocks {
			break
		}
		blocks = len(sigID)
		block, next = next, block
	}

	// The least symbol of each block represents it; blocks are numbered in
	// the order of their least symbols. An atom whose merged bounds are
	// inexpressible keeps its own symbols, so they are kept too, each with
	// its own σ, condition and rewritten µ.
	keep := make([]bool, len(syms))
	var rep []int32
	for i, b := range block {
		if int(b) == len(rep) {
			rep = append(rep, int32(i))
			keep[i] = true
		}
	}
	work := slices.Clone(rep)
	outMu := make([][][]item, len(syms))
	items := 0
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		var nd [][]item
		for _, a := range mu[i] {
			na, ok := mergeAtom(a, block, rep)
			if !ok {
				na = a
				for _, it := range a {
					if !keep[it.sym] {
						keep[it.sym] = true
						work = append(work, it.sym)
					}
				}
			}
			if !slices.ContainsFunc(nd, func(x []item) bool { return slices.Equal(x, na) }) {
				nd = append(nd, na)
				items += len(na)
			}
		}
		outMu[i] = nd
	}

	names := make([]ctype.Symbol, len(syms))
	rank := 0
	for i, s := range syms {
		if !keep[i] {
			continue
		}
		if tg := ty.Sigma[s]; tg.IsNode() {
			buf = append(strconv.AppendInt(append(buf[:0], 'n'), int64(rank), 10), '@')
			buf = append(buf, tg.Node...)
		} else {
			buf = strconv.AppendInt(append(buf[:0], 'q'), int64(rank), 10)
		}
		names[i] = ctype.Symbol(buf)
		rank++
	}
	oty := &ctype.Type{
		Mu:    make(map[ctype.Symbol]ctype.Disj, rank),
		Cond:  make(map[ctype.Symbol]cond.Cond, rank),
		Sigma: make(map[ctype.Symbol]ctype.Target, rank),
	}
	for _, r := range ty.Roots {
		nr := names[rep[block[idx[r]]]]
		if !slices.Contains(oty.Roots, nr) {
			oty.Roots = append(oty.Roots, nr)
		}
	}
	flat := make([]ctype.SItem, 0, items)
	for i, s := range syms {
		if !keep[i] {
			continue
		}
		name := names[i]
		oty.Sigma[name] = ty.Sigma[s]
		oty.Cond[name] = ty.CondFor(s)
		nd := make(ctype.Disj, len(outMu[i]))
		for j, a := range outMu[i] {
			start := len(flat)
			for _, it := range a {
				flat = append(flat, ctype.SItem{Sym: names[it.sym], Mult: it.mult})
			}
			nd[j] = flat[start:len(flat):len(flat)]
		}
		oty.Mu[name] = nd
	}
	return &itree.T{Nodes: maps.Clone(t.Nodes), Type: oty, MayBeEmpty: t.MayBeEmpty}
}

// intern returns the id of key in m, adding it with the next free id when
// it is new.
func intern(m map[string]int32, key []byte) int32 {
	id, ok := m[string(key)]
	if !ok {
		id = int32(len(m))
		m[string(key)] = id
	}
	return id
}

// mergeAtom maps the items of a to their block representatives, adding the
// occurrence bounds of items that land on the same one. It fails when a
// combined bound is none of the four multiplicities.
func mergeAtom(a []item, block, rep []int32) ([]item, bool) {
	type bounds struct {
		sym    int32
		lo, hi int // hi < 0 means unbounded
	}
	acc := make([]bounds, 0, len(a))
	for _, it := range a {
		s := rep[block[it.sym]]
		lo, hi := it.mult.Bounds()
		j := slices.IndexFunc(acc, func(b bounds) bool { return b.sym == s })
		if j < 0 {
			acc = append(acc, bounds{s, lo, hi})
			continue
		}
		b := &acc[j]
		b.lo += lo
		if b.hi < 0 || hi < 0 {
			b.hi = -1
		} else {
			b.hi += hi
		}
	}
	out := make([]item, len(acc))
	for j, b := range acc {
		switch {
		case b.lo == 0 && b.hi == 1:
			out[j] = item{b.sym, dtd.Opt}
		case b.lo == 1 && b.hi == 1:
			out[j] = item{b.sym, dtd.One}
		case b.lo == 0 && b.hi < 0:
			out[j] = item{b.sym, dtd.Star}
		case b.lo == 1 && b.hi < 0:
			out[j] = item{b.sym, dtd.Plus}
		default:
			return nil, false
		}
	}
	return out, true
}
