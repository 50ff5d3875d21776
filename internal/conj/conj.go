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
// Refine⁺ is Refine with the Lemma 3.3 product deferred, so the expansion
// (ToITree, and every certificate tree T_π) is refine.Product, the same
// product Refine computes, over all conjuncts at once.
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
type RootChoice = []ctype.Symbol

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
	if !refine.Compatible(t.Nodes, qa.Nodes) {
		return refine.ErrIncompatible
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

// ToITree expands the conjunctive tree into an equivalent regular incomplete
// tree by materializing the alternation: it is the one-factor
// refine.Product, the Lemma 3.3 product that Refine computes per step, here
// over k conjuncts at once. Reachable symbol sets become product symbols
// and every per-conjunct atom choice becomes one disjunct. The output is
// worst-case exponential in the input — this is exactly the DNF blow-up
// that conjunctive trees defer (Example 3.2), and the E6 benchmarks
// measure it.
func (t *T) ToITree() (*itree.T, error) {
	return t.product(t.CNFFor, nil)
}

// product is the one-factor refine.Product of t with the conjuncts of each
// symbol given by cnf, under a cooperative budget (nil: unlimited).
func (t *T) product(cnf func(ctype.Symbol) CNF, bud *budget.B) (*itree.T, error) {
	return refine.Product([]refine.Factor{{
		Nodes:      t.Nodes,
		Roots:      t.Roots,
		MayBeEmpty: t.MayBeEmpty,
		Target:     t.TargetFor,
		Cond:       t.CondFor,
		AppendConjuncts: func(dst []ctype.Disj, s ctype.Symbol) []ctype.Disj {
			return append(dst, cnf(s)...)
		},
	}}, bud)
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
	// Decode the per-symbol atom choices into singleton disjunctions; with
	// them the expansion is polynomial.
	choice := make(map[ctype.Symbol]CNF, len(syms))
	for i, s := range syms {
		rem := idx[i]
		var cnf CNF
		for _, d := range t.CNFFor(s) {
			if len(d) == 0 {
				return nil, nil
			}
			cnf = append(cnf, ctype.Disj{d[rem%len(d)]})
			rem /= len(d)
		}
		choice[s] = cnf
	}
	expanded, err := t.product(func(s ctype.Symbol) CNF { return choice[s] }, bud)
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
