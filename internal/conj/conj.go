// Package conj implements conjunctive incomplete trees (Section 3.2):
// incomplete trees whose multiplicity mappings are conjunctions of
// disjunctions of multiplicity atoms. In automata terms this adds
// alternation to the nondeterminism of regular incomplete trees.
//
// The payoff is Theorem 3.8 / Corollary 3.9: Algorithm Refine⁺ grows the
// representation additively — O(|T| + (|A|+|q|)·|Σ|) per step — instead of
// the worst-case exponential growth of regular incomplete trees
// (Example 3.2). The price is Theorem 3.10: emptiness becomes NP-complete;
// the implementation exposes both the certificate-guessing NP procedure and
// an explicit (exponential) expansion back to a regular incomplete tree.
package conj

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/refine"
	"incxml/internal/tree"
)

// CNF is a conjunction of disjunctions of multiplicity atoms: a node's
// children must satisfy some atom of every conjunct simultaneously.
type CNF []ctype.Disj

// RootChoice is one conjunct of the root constraint: the root must be typed
// by some symbol of every RootChoice simultaneously.
type RootChoice []ctype.Symbol

// T is a conjunctive incomplete tree.
type T struct {
	// Nodes is the data-node set N with λ and ν, as for incomplete trees.
	Nodes map[tree.NodeID]itree.NodeInfo
	// Roots is a conjunction of disjunctions of root symbols. A data tree
	// belongs to rep(T) if its root can simultaneously carry one symbol from
	// every choice.
	Roots []RootChoice
	// Mu assigns each symbol its CNF of multiplicity atoms; absent symbols
	// admit only leaves.
	Mu map[ctype.Symbol]CNF
	// Cond assigns conditions (default true).
	Cond map[ctype.Symbol]cond.Cond
	// Sigma is the specialization mapping.
	Sigma map[ctype.Symbol]ctype.Target
	// MayBeEmpty marks the empty tree as a member.
	MayBeEmpty bool
}

// New returns an empty conjunctive incomplete tree.
func New() *T {
	return &T{
		Nodes: map[tree.NodeID]itree.NodeInfo{},
		Mu:    map[ctype.Symbol]CNF{},
		Cond:  map[ctype.Symbol]cond.Cond{},
		Sigma: map[ctype.Symbol]ctype.Target{},
	}
}

// FromITree lifts a regular incomplete tree: every disjunction becomes a
// one-conjunct CNF.
func FromITree(t *itree.T) *T {
	out := New()
	out.MayBeEmpty = t.MayBeEmpty
	for n, info := range t.Nodes {
		out.Nodes[n] = info
	}
	if len(t.Type.Roots) > 0 {
		out.Roots = []RootChoice{append(RootChoice(nil), t.Type.Roots...)}
	}
	for s, d := range t.Type.Mu {
		out.Mu[s] = CNF{d.Clone()}
	}
	for s, c := range t.Type.Cond {
		out.Cond[s] = c
	}
	for s, tg := range t.Type.Sigma {
		out.Sigma[s] = tg
	}
	return out
}

// Size returns the representation size: symbols plus total items plus data
// nodes — the measure tracked by the blow-up experiments.
func (t *T) Size() int {
	n := len(t.Nodes)
	for _, choice := range t.Roots {
		n += len(choice)
	}
	for _, c := range t.Mu {
		n++
		for _, d := range c {
			for _, a := range d {
				n += len(a)
			}
		}
	}
	return n
}

// CondFor returns the condition of s, defaulting to true.
func (t *T) CondFor(s ctype.Symbol) cond.Cond {
	if c, ok := t.Cond[s]; ok {
		return c
	}
	return cond.True()
}

// TargetFor returns σ(s); it panics on unknown symbols.
func (t *T) TargetFor(s ctype.Symbol) ctype.Target {
	tg, ok := t.Sigma[s]
	if !ok {
		panic(fmt.Sprintf("conj: symbol %q has no specialization target", s))
	}
	return tg
}

// CNFFor returns the CNF of s, defaulting to the single conjunct {ε} that
// admits only leaves.
func (t *T) CNFFor(s ctype.Symbol) CNF {
	if c, ok := t.Mu[s]; ok {
		return c
	}
	return CNF{ctype.Disj{ctype.SAtom{}}}
}

// EffectiveCond pins node-symbol conditions to the node's value, as for
// regular incomplete trees.
func (t *T) EffectiveCond(s ctype.Symbol) cond.Cond {
	c := t.CondFor(s)
	if tg := t.TargetFor(s); tg.IsNode() {
		info, ok := t.Nodes[tg.Node]
		if !ok {
			return cond.False()
		}
		return c.And(cond.Eq(info.Value))
	}
	return c
}

// RefinePlus is one step of Algorithm Refine⁺ (Theorem 3.8): it folds a
// ps-query/answer pair into the conjunctive tree in time — and added size —
// O((|A|+|q|)·|Σ|). The first step (T_{q,A}, Lemma 3.2) is shared with
// Algorithm Refine; the intersection step simply adjoins the new tree as an
// extra conjunct, renaming its symbols apart.
func (t *T) RefinePlus(q query.Query, a tree.Tree, sigma []tree.Label) error {
	qa, err := refine.FromQueryAnswer(q, a, sigma)
	if err != nil {
		return err
	}
	// Compatibility of shared data nodes (precondition of Lemma 3.3).
	for n, info := range qa.Nodes {
		if prev, ok := t.Nodes[n]; ok {
			if prev.Label != info.Label || !prev.Value.Equal(info.Value) {
				return fmt.Errorf("conj: node %q reported with conflicting label/value", n)
			}
		}
	}
	step := 0
	for {
		collision := false
		for s := range qa.Type.Sigma {
			if _, ok := t.Sigma[stepSym(step, s)]; ok {
				collision = true
				break
			}
		}
		if !collision {
			break
		}
		step++
	}
	rename := func(s ctype.Symbol) ctype.Symbol { return stepSym(step, s) }
	renamed := qa.Type.Rename(rename)
	for n, info := range qa.Nodes {
		t.Nodes[n] = info
	}
	if len(renamed.Roots) > 0 {
		t.Roots = append(t.Roots, append(RootChoice(nil), renamed.Roots...))
	}
	for s, d := range renamed.Mu {
		t.Mu[s] = CNF{d}
	}
	for s, c := range renamed.Cond {
		t.Cond[s] = c
	}
	for s, tg := range renamed.Sigma {
		t.Sigma[s] = tg
	}
	t.MayBeEmpty = t.MayBeEmpty && qa.MayBeEmpty
	return nil
}

func stepSym(step int, s ctype.Symbol) ctype.Symbol {
	return ctype.Symbol(fmt.Sprintf("s%d:%s", step, s))
}

// setSymbol names the regular-tree symbol for a set of conjunctive symbols.
func setSymbol(set []ctype.Symbol) ctype.Symbol {
	parts := make([]string, len(set))
	for i, s := range set {
		parts[i] = string(s)
	}
	return ctype.Symbol("{" + strings.Join(parts, "+") + "}")
}

// normalizeSet sorts and deduplicates a symbol set.
func normalizeSet(set []ctype.Symbol) []ctype.Symbol {
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	out := set[:0]
	var prev ctype.Symbol
	for i, s := range set {
		if i == 0 || s != prev {
			out = append(out, s)
		}
		prev = s
	}
	return out
}

// compatibleSet checks that the symbols of a set can simultaneously type one
// node, returning the combined σ-target: at most one distinct data node, and
// all label targets equal (and equal to the node's label if a node target is
// present).
func (t *T) compatibleSet(set []ctype.Symbol) (ctype.Target, bool) {
	var node tree.NodeID
	var label tree.Label
	haveLabel := false
	for _, s := range set {
		tg := t.TargetFor(s)
		if tg.IsNode() {
			if node != "" && node != tg.Node {
				return ctype.Target{}, false
			}
			node = tg.Node
		} else {
			if haveLabel && label != tg.Label {
				return ctype.Target{}, false
			}
			haveLabel = true
			label = tg.Label
		}
	}
	if node != "" {
		info, ok := t.Nodes[node]
		if !ok {
			return ctype.Target{}, false
		}
		if haveLabel && label != info.Label {
			return ctype.Target{}, false
		}
		return ctype.NodeTarget(node), true
	}
	return ctype.LabelTarget(label), true
}

// ToITree expands the conjunctive tree into an equivalent regular incomplete
// tree by materializing the alternation: reachable symbol sets become
// product symbols and every per-conjunct atom choice becomes one disjunct.
// The output is worst-case exponential in the input — this is exactly the
// DNF blow-up that conjunctive trees defer (Example 3.2), and the E6
// benchmarks measure it.
func (t *T) ToITree() (*itree.T, error) {
	return t.toITree(nil)
}

// toITree is ToITree with a cooperative budget: one step per materialized
// product symbol and per candidate join tuple, so the exponential expansion
// stops promptly when a budget runs out. A nil budget is unlimited.
func (t *T) toITree(bud *budget.B) (*itree.T, error) {
	out := itree.New()
	out.MayBeEmpty = t.MayBeEmpty
	for n, info := range t.Nodes {
		out.Nodes[n] = info
	}
	ty := out.Type

	var ensure func(set []ctype.Symbol) (ctype.Symbol, bool, error)
	ensure = func(set []ctype.Symbol) (ctype.Symbol, bool, error) {
		if err := bud.Charge(1); err != nil {
			return "", false, err
		}
		set = normalizeSet(append([]ctype.Symbol(nil), set...))
		ps := setSymbol(set)
		if _, done := ty.Sigma[ps]; done {
			return ps, true, nil
		}
		tg, ok := t.compatibleSet(set)
		if !ok {
			return "", false, nil
		}
		c := cond.True()
		for _, s := range set {
			c = c.And(t.CondFor(s))
		}
		ty.Sigma[ps] = tg
		ty.Cond[ps] = c
		ty.Mu[ps] = ctype.Disj{} // placeholder against recursion
		// Combined CNF: all conjuncts of all members.
		var conjuncts []ctype.Disj
		for _, s := range set {
			conjuncts = append(conjuncts, t.CNFFor(s)...)
		}
		var disj ctype.Disj
		var rec func(idx int, chosen []ctype.SAtom) error
		rec = func(idx int, chosen []ctype.SAtom) error {
			if idx == len(conjuncts) {
				atom, ok, err := t.joinAtoms(chosen, ensure, bud)
				if err != nil {
					return err
				}
				if ok {
					disj = append(disj, atom)
				}
				return nil
			}
			for _, a := range conjuncts[idx] {
				if err := rec(idx+1, append(chosen, a)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0, nil); err != nil {
			return "", false, err
		}
		ty.Mu[ps] = disj
		return ps, true, nil
	}

	// Root sets: one symbol from every root choice.
	if len(t.Roots) == 0 {
		return out, nil
	}
	seenRoot := map[ctype.Symbol]bool{}
	var pick func(idx int, acc []ctype.Symbol) error
	pick = func(idx int, acc []ctype.Symbol) error {
		if idx == len(t.Roots) {
			ps, ok, err := ensure(acc)
			if err != nil {
				return err
			}
			if ok && !seenRoot[ps] {
				seenRoot[ps] = true
				ty.Roots = append(ty.Roots, ps)
			}
			return nil
		}
		for _, s := range t.Roots[idx] {
			if err := pick(idx+1, append(acc, s)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pick(0, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// joinAtoms computes the k-way ⋈ of the chosen atoms: items combine into
// tuples of pairwise compatible items (one from each atom); required items
// must be covered by some tuple.
func (t *T) joinAtoms(atoms []ctype.SAtom, ensure func([]ctype.Symbol) (ctype.Symbol, bool, error), bud *budget.B) (ctype.SAtom, bool, error) {
	if len(atoms) == 0 {
		return ctype.SAtom{}, true, nil
	}
	type tuple struct {
		set    []ctype.Symbol
		mult   dtd.Mult
		covers [][2]int // (atom index, item index) pairs covered
	}
	tuples := []tuple{{set: nil, mult: dtd.Star}}
	for ai, a := range atoms {
		var next []tuple
		for _, tp := range tuples {
			for ii, item := range a {
				if err := bud.Charge(1); err != nil {
					return nil, false, err
				}
				set := append(append([]ctype.Symbol(nil), tp.set...), item.Sym)
				if _, ok := t.compatibleSet(normalizeSet(append([]ctype.Symbol(nil), set...))); !ok {
					continue
				}
				// Value compatibility: a node item pins the value; every
				// label item's condition must admit it.
				if !t.valueCompatible(set) {
					continue
				}
				m := tp.mult
				if ai == 0 {
					m = item.Mult
				} else {
					m = joinMult(m, item.Mult)
				}
				covers := append(append([][2]int(nil), tp.covers...), [2]int{ai, ii})
				next = append(next, tuple{set: set, mult: m, covers: covers})
			}
		}
		tuples = next
		if len(tuples) == 0 {
			break
		}
	}
	// Coverage check: every required item of every atom appears in a tuple.
	covered := map[[2]int]bool{}
	for _, tp := range tuples {
		for _, c := range tp.covers {
			covered[c] = true
		}
	}
	for ai, a := range atoms {
		for ii, item := range a {
			if lo, _ := item.Mult.Bounds(); lo >= 1 && !covered[[2]int{ai, ii}] {
				return nil, false, nil
			}
		}
	}
	// Materialize tuple symbols, summing bounds of duplicates.
	type bounds struct{ lo, hi int }
	acc := map[ctype.Symbol]*bounds{}
	var order []ctype.Symbol
	for _, tp := range tuples {
		ps, ok, err := ensure(tp.set)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		lo, hi := tp.mult.Bounds()
		if b, ok := acc[ps]; ok {
			b.lo += lo
			if b.hi < 0 || hi < 0 {
				b.hi = -1
			} else {
				b.hi += hi
			}
		} else {
			acc[ps] = &bounds{lo, hi}
			order = append(order, ps)
		}
	}
	var atom ctype.SAtom
	for _, ps := range order {
		b := acc[ps]
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
			return nil, false, fmt.Errorf("conj: combined multiplicity [%d,%d] not expressible", b.lo, b.hi)
		}
		atom = append(atom, ctype.SItem{Sym: ps, Mult: m})
	}
	return atom, true, nil
}

// valueCompatible checks that a set mixing a node item with label items is
// value-consistent: the pinned ν must satisfy every label condition.
func (t *T) valueCompatible(set []ctype.Symbol) bool {
	var pinned *itree.NodeInfo
	for _, s := range set {
		if tg := t.TargetFor(s); tg.IsNode() {
			info, ok := t.Nodes[tg.Node]
			if !ok {
				return false
			}
			pinned = &info
			break
		}
	}
	if pinned == nil {
		return true
	}
	for _, s := range set {
		if tg := t.TargetFor(s); !tg.IsNode() {
			if !t.CondFor(s).Holds(pinned.Value) {
				return false
			}
		}
	}
	return true
}

// joinMult is the ∧ of Lemma 3.3 extended to the four multiplicities by
// intersecting occurrence bounds.
func joinMult(m1, m2 dtd.Mult) dtd.Mult {
	lo1, hi1 := m1.Bounds()
	lo2, hi2 := m2.Bounds()
	lo := lo1
	if lo2 > lo {
		lo = lo2
	}
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
	default:
		return dtd.Star
	}
}

// Member reports whether d ∈ rep(T), via the exact expansion.
func (t *T) Member(d tree.Tree) bool {
	expanded, err := t.ToITree()
	if err != nil {
		return false
	}
	return expanded.Member(d)
}

// Empty decides rep(T) = ∅. The decision problem is the NP procedure of
// Theorem 3.10 — guess, for every symbol, one disjunct per conjunct (the
// certificate π), build the regular incomplete tree T_π in polynomial time,
// and test its emptiness; rep(T) = ∅ iff every certificate yields an empty
// T_π — but rather than enumerating the exponential certificate space, the
// implementation runs the pruned backtracking search of scan.go, which
// assigns certificate digits lazily over the reachable symbol sets and
// memoizes joins and productivity verdicts. It is EmptyBudgeted's search
// with a nil budget. Verdicts are identical to EmptySequential, the
// reference certificate scan kept for the differential tests and the E21
// before-after benchmark.
func (t *T) Empty() bool {
	v, _ := t.emptyScan(context.Background(), nil)
	return v == budget.Yes
}

// EmptySequential is the reference certificate scan (the baseline the E21
// benchmark and the differential tests compare the pruned search against):
// the mixed-radix loop of emptySequentialBudgeted with a nil budget, so it
// visits every certificate until one is satisfiable.
func (t *T) EmptySequential() bool {
	if t.MayBeEmpty {
		return false
	}
	syms, counts := t.certificateSpace()
	v, _ := t.emptySequentialBudgeted(context.Background(), syms, counts, nil)
	return v == budget.Yes
}

// certificateSpace returns the symbol order and the per-symbol choice
// counts: the radices of the mixed-radix certificate counter.
func (t *T) certificateSpace() (syms []ctype.Symbol, counts []int) {
	syms = t.symbols()
	counts = make([]int, 0, len(syms))
	for _, s := range syms {
		n := 1
		for _, d := range t.CNFFor(s) {
			n *= len(d)
		}
		if n == 0 {
			// Some conjunct has no atom at all: the symbol admits nothing.
			n = 1 // keep a single (dead) choice; handled in buildPi
		}
		counts = append(counts, n)
	}
	return syms, counts
}

// buildPi constructs the regular incomplete tree T_π for one certificate:
// each symbol keeps exactly one atom per conjunct, and the fixed choices are
// joined into a single atom via the k-way ⋈ (polynomial: no choice
// branching remains). Returns (nil, nil) when some join is infeasible; the
// only non-nil error is budget exhaustion, which must abort the scan rather
// than masquerade as an infeasible certificate.
func (t *T) buildPi(syms []ctype.Symbol, idx []int, bud *budget.B) (*itree.T, error) {
	// Decode the per-symbol atom choices.
	choice := map[ctype.Symbol][]ctype.SAtom{}
	for i, s := range syms {
		cnf := t.CNFFor(s)
		rem := idx[i]
		var atoms []ctype.SAtom
		ok := true
		for _, d := range cnf {
			if len(d) == 0 {
				ok = false
				break
			}
			atoms = append(atoms, d[rem%len(d)])
			rem /= len(d)
		}
		if !ok {
			return nil, nil
		}
		choice[s] = atoms
	}
	// Build the restricted conjunctive tree and expand it; with singleton
	// disjunctions the expansion is polynomial.
	restricted := New()
	restricted.MayBeEmpty = t.MayBeEmpty
	for n, info := range t.Nodes {
		restricted.Nodes[n] = info
	}
	restricted.Roots = t.Roots
	for s, atoms := range choice {
		cnf := make(CNF, len(atoms))
		for i, a := range atoms {
			cnf[i] = ctype.Disj{a}
		}
		restricted.Mu[s] = cnf
	}
	for s, c := range t.Cond {
		restricted.Cond[s] = c
	}
	for s, tg := range t.Sigma {
		restricted.Sigma[s] = tg
	}
	expanded, err := restricted.toITree(bud)
	if err != nil {
		if errors.Is(err, budget.ErrExhausted) {
			return nil, err
		}
		return nil, nil
	}
	return expanded, nil
}

// symbols returns the sorted symbol alphabet.
func (t *T) symbols() []ctype.Symbol {
	set := map[ctype.Symbol]bool{}
	for _, choice := range t.Roots {
		for _, s := range choice {
			set[s] = true
		}
	}
	for s, c := range t.Mu {
		set[s] = true
		for _, d := range c {
			for _, a := range d {
				for _, item := range a {
					set[item.Sym] = true
				}
			}
		}
	}
	for s := range t.Sigma {
		set[s] = true
	}
	out := make([]ctype.Symbol, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the conjunctive tree.
func (t *T) String() string {
	var b strings.Builder
	b.WriteString("roots:")
	for _, choice := range t.Roots {
		parts := make([]string, len(choice))
		for i, s := range choice {
			parts[i] = string(s)
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, " v "))
	}
	b.WriteString("\n")
	for _, s := range t.symbols() {
		if c, ok := t.Mu[s]; ok {
			parts := make([]string, len(c))
			for i, d := range c {
				parts[i] = "(" + d.String() + ")"
			}
			fmt.Fprintf(&b, "%s -> %s\n", s, strings.Join(parts, " ^ "))
		}
	}
	return b.String()
}
