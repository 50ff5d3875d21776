package refine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// Universal returns the incomplete tree representing every data tree over
// the given alphabet: one symbol per label, any root, all⋆ children. This is
// the starting point of the Refine chain before any query has been asked.
func Universal(sigma []tree.Label) *itree.T {
	out := itree.New()
	ty := out.Type
	all := make(ctype.SAtom, 0, len(sigma))
	for _, l := range sigma {
		all = append(all, ctype.SItem{Sym: anySym(l), Mult: dtd.Star})
	}
	for _, l := range sigma {
		s := anySym(l)
		ty.Sigma[s] = ctype.LabelTarget(l)
		ty.Mu[s] = ctype.Disj{all.Clone()}
		ty.Roots = append(ty.Roots, s)
	}
	return out
}

// Refine performs one step of Algorithm Refine (Theorem 3.4): given the
// current incomplete tree and a ps-query with its answer, it returns an
// unambiguous incomplete tree representing rep(t) ∩ q⁻¹(A). It is
// RefineBudgeted with a nil budget.
func Refine(t *itree.T, q query.Query, a tree.Tree, sigma []tree.Label) (*itree.T, error) {
	return RefineBudgeted(t, q, a, sigma, nil)
}

// Compact shrinks an incomplete tree without changing rep: it removes
// symbols with unsatisfiable effective conditions, trims useless symbols,
// and merges congruent symbols (same target, same condition, same
// multiplicity structure up to the merge). Compaction is what keeps the
// Refine chain polynomial for linear queries (Lemma 3.12): there, conditions
// at each level partition Q, so the product symbols with empty conditions
// die and the rest stay linear in the query-answer sequence.
func Compact(t *itree.T) *itree.T {
	out := dropUnsatisfiable(t)
	out = out.TrimUseless()
	out = mergeCongruent(out)
	out = shortNames(out)
	return out
}

// shortNames renames every symbol to a short canonical name. Product
// symbols from Lemma 3.3 concatenate their factors' names, so over a chain
// of n Refine steps raw names grow to length 2ⁿ; renaming after each step
// keeps the representation size proportional to the symbol count.
func shortNames(t *itree.T) *itree.T {
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

// dropUnsatisfiable removes symbols whose effective condition is empty:
// items referencing them are deleted when optional, and disjuncts requiring
// them are deleted.
func dropUnsatisfiable(t *itree.T) *itree.T {
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

// mergeCongruent merges symbols that are indistinguishable: same σ-target,
// same effective condition, and the same multiplicity structure after
// rewriting through the merge (greatest fixpoint, as in automaton
// minimization via partition refinement).
func mergeCongruent(t *itree.T) *itree.T {
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
			sig := fmt.Sprintf("%d|%s", block[s], disjSignature(t.Type.DisjFor(s), block))
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
			na, ok := rewriteAtom(atom, rewrite)
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

// disjSignature is a canonical string for a disjunction with symbols
// replaced by block ids.
func disjSignature(d ctype.Disj, block map[ctype.Symbol]int) string {
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

// rewriteAtom maps item symbols through the merge, combining duplicates by
// adding occurrence bounds. It fails when a combined bound is not
// expressible as one of the four multiplicities.
func rewriteAtom(a ctype.SAtom, rewrite func(ctype.Symbol) ctype.Symbol) (ctype.SAtom, bool) {
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

// Refiner incrementally maintains an incomplete tree over a sequence of
// ps-query/answer pairs against one source document.
type Refiner struct {
	sigma  []tree.Label
	source *dtd.Type
	cur    *itree.T
	// CompactEach controls whether Compact runs after every observation.
	// Compaction never changes rep; it is what keeps linear-query chains
	// polynomial (Lemma 3.12) at a small constant per-step cost.
	CompactEach bool
	steps       int
	// lossy records that some observation went through the lossy-shrinking
	// fallback (ObserveBudgeted): cur is then a rep-superset of the true
	// refinement.
	lossy bool
}

// NewRefiner starts a refinement chain. The source type may be nil if the
// source's DTD is unknown.
func NewRefiner(sigma []tree.Label, source *dtd.Type) *Refiner {
	return &Refiner{
		sigma:       append([]tree.Label(nil), sigma...),
		source:      source,
		cur:         Universal(sigma),
		CompactEach: true,
	}
}

// ErrInconsistent reports that an observation contradicts the accumulated
// knowledge: no document satisfies all query-answer pairs (and the type)
// any more. This happens when the source changed between queries; the
// paper's remedy is to reinitialize the knowledge to the source type
// (Section 1), which the webhouse layer does on this error.
var ErrInconsistent = errors.New("refine: observation inconsistent with accumulated knowledge (source changed?)")

// Observe folds one ps-query/answer pair into the representation
// (one step of Algorithm Refine). It returns ErrInconsistent (wrapped) when
// the refined representation becomes empty; the previous state is kept so
// the caller can decide how to recover. It is ObserveBudgeted with a nil
// budget, which never takes the lossy fallback.
func (r *Refiner) Observe(q query.Query, a tree.Tree) error {
	_, err := r.ObserveBudgeted(q, a, nil, 0)
	return err
}

// Tree returns the current incomplete tree (query information only, not yet
// intersected with the source type).
func (r *Refiner) Tree() *itree.T { return r.cur }

// Reachable returns the paper's "reachable" incomplete tree: the current
// refinement further intersected with the source tree type (Theorem 3.5).
// If no source type is known, it returns the current tree unchanged.
func (r *Refiner) Reachable() *itree.T {
	if r.source == nil {
		return r.cur
	}
	return Compact(WithTreeType(r.cur, r.source))
}

// Steps returns the number of observations folded so far.
func (r *Refiner) Steps() int { return r.steps }

// Sigma returns the alphabet of the chain.
func (r *Refiner) Sigma() []tree.Label { return r.sigma }

// ObserveOn is a convenience that evaluates q on the full source document
// and observes the resulting answer; used by simulations where the true
// document is available.
func (r *Refiner) ObserveOn(doc tree.Tree, q query.Query) (tree.Tree, error) {
	a := q.Eval(doc)
	if err := r.Observe(q, a); err != nil {
		return tree.Tree{}, err
	}
	return a, nil
}
