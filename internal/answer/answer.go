// Package answer implements querying of incomplete trees (Section 3.3):
// given an incomplete tree T and a ps-query q, it constructs an incomplete
// tree q(T) with rep(q(T)) = {q(T) | T ∈ rep(T)} — the strong representation
// system property of Theorem 3.14 — and the derived decision procedures:
// full answerability (Corollary 3.15, answering queries using views per
// Remark 3.16), certain/possible answer prefixes (Theorem 3.17), and
// certain/possible non-emptiness of answers (Corollary 3.18).
package answer

import (
	"fmt"

	"incxml/internal/budget"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// copyCtx is the pattern-context marker for nodes below a bar (ā) match:
// the whole input subtree is copied into the answer.
const copyCtx = "!copy"

// pairName names the answer symbol ⟨τ, m⟩ for input symbol τ and query
// context ctx (a query-node path or copyCtx).
func pairName(s ctype.Symbol, ctx string) ctype.Symbol {
	return ctype.Symbol("<" + string(s) + "@" + ctx + ">")
}

// Apply constructs q(T) (Theorem 3.14). The construction is polynomial in q
// and T for a fixed alphabet and exponential in |Σ| in the worst case (the
// per-atom disjunctive expansion requiring one output per pattern child).
func Apply(it *itree.T, q query.Query) (*itree.T, error) {
	return ApplyBudgeted(it, q, nil)
}

// ApplyBudgeted is Apply with a cooperative budget charged one step per
// answer symbol materialized and per atom of the disjunctive expansion — the
// two places the construction can go exponential. On exhaustion it returns
// the budget error (matching budget.ErrExhausted); the partial answer tree
// is discarded because q(T) is only meaningful when complete. A nil budget
// is equivalent to Apply.
func ApplyBudgeted(it *itree.T, q query.Query, bud *budget.B) (*itree.T, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	w := it.TrimUseless()

	// Index query nodes by path, and parents for Subquery contexts.
	type qinfo struct {
		node *query.Node
		path string
	}
	var qnodes []qinfo
	var walk func(m *query.Node, path string)
	walk = func(m *query.Node, path string) {
		qnodes = append(qnodes, qinfo{m, path})
		for i, c := range m.Children {
			walk(c, fmt.Sprintf("%s/%d", path, i))
		}
	}
	walk(q.Root, "0")

	poss, cert := MatchSets(w, q)

	out := itree.New()
	ty := out.Type

	baseLabel := func(s ctype.Symbol) tree.Label {
		tg := w.Type.TargetFor(s)
		if tg.IsNode() {
			return w.Nodes[tg.Node].Label
		}
		return tg.Label
	}

	// ensureCopy adds the ⟨τ, copy⟩ symbols: a verbatim copy of the input
	// type reachable below bar matches.
	var ensureCopy func(s ctype.Symbol) error
	ensureCopy = func(s ctype.Symbol) error {
		ps := pairName(s, copyCtx)
		if _, ok := ty.Sigma[ps]; ok {
			return nil
		}
		if err := bud.Charge(1); err != nil {
			return err
		}
		ty.Sigma[ps] = w.Type.TargetFor(s)
		ty.Cond[ps] = w.Type.CondFor(s)
		ty.Mu[ps] = ctype.Disj{} // placeholder against recursion
		var disj ctype.Disj
		for _, a := range w.Type.DisjFor(s) {
			na := make(ctype.SAtom, 0, len(a))
			for _, item := range a {
				if err := ensureCopy(item.Sym); err != nil {
					return err
				}
				na = append(na, ctype.SItem{Sym: pairName(item.Sym, copyCtx), Mult: item.Mult})
			}
			disj = append(disj, na)
		}
		ty.Mu[ps] = disj
		return nil
	}

	// ensurePair adds ⟨τ, m⟩ for input symbol τ possibly matching query node
	// m, and recursively everything reachable from it.
	var ensurePair func(s ctype.Symbol, qi qinfo) error
	ensurePair = func(s ctype.Symbol, qi qinfo) error {
		ps := pairName(s, qi.path)
		if _, ok := ty.Sigma[ps]; ok {
			return nil
		}
		if err := bud.Charge(1); err != nil {
			return err
		}
		m := qi.node
		ty.Sigma[ps] = w.Type.TargetFor(s)
		ty.Cond[ps] = w.Type.CondFor(s).And(m.Cond)
		ty.Mu[ps] = ctype.Disj{}
		if m.Extract {
			// Bar: the full input subtree is copied.
			var disj ctype.Disj
			for _, a := range w.Type.DisjFor(s) {
				na := make(ctype.SAtom, 0, len(a))
				for _, item := range a {
					if err := ensureCopy(item.Sym); err != nil {
						return err
					}
					na = append(na, ctype.SItem{Sym: pairName(item.Sym, copyCtx), Mult: item.Mult})
				}
				disj = append(disj, na)
			}
			ty.Mu[ps] = disj
			return nil
		}
		// Pattern-internal node: keep only items relevant to some child
		// pattern, weaken possible-but-not-certain outputs, and require at
		// least one output per child pattern.
		childPaths := make([]string, len(m.Children))
		for i := range m.Children {
			childPaths[i] = fmt.Sprintf("%s/%d", qi.path, i)
		}
		var disj ctype.Disj
		for _, a := range w.Type.DisjFor(s) {
			// Group the atom's items by which child pattern they can feed.
			perChild := make([][]ctype.SItem, len(m.Children))
			feasible := true
			for ci, mc := range m.Children {
				for _, item := range a {
					if baseLabel(item.Sym) != mc.Label {
						continue
					}
					if !poss[PathKey{item.Sym, childPaths[ci]}] {
						continue
					}
					// Weaken multiplicities for possible-but-uncertain
					// producers: 1 → ?, + → ⋆.
					mult := item.Mult
					if !cert[PathKey{item.Sym, childPaths[ci]}] {
						switch mult {
						case dtd.One:
							mult = dtd.Opt
						case dtd.Plus:
							mult = dtd.Star
						}
					}
					perChild[ci] = append(perChild[ci], ctype.SItem{Sym: item.Sym, Mult: mult})
				}
				if len(perChild[ci]) == 0 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			// Expand: per child pattern, at least one instance must produce
			// output. For each child, enumerate "witness" choices: one item
			// whose multiplicity is raised to mandatory (? → 1, ⋆ → +); the
			// remaining items stay weakened. Children whose group already
			// guarantees an instance (1 or +) need no upgrade.
			choices := make([][]ctype.SAtom, len(m.Children))
			for ci := range m.Children {
				group := perChild[ci]
				guaranteed := false
				for _, item := range group {
					if item.Mult == dtd.One || item.Mult == dtd.Plus {
						guaranteed = true
						break
					}
				}
				if guaranteed {
					na := make(ctype.SAtom, len(group))
					copy(na, group)
					choices[ci] = []ctype.SAtom{na}
					continue
				}
				var variants []ctype.SAtom
				for pick := range group {
					na := make(ctype.SAtom, len(group))
					copy(na, group)
					switch na[pick].Mult {
					case dtd.Opt:
						na[pick].Mult = dtd.One
					case dtd.Star:
						na[pick].Mult = dtd.Plus
					}
					variants = append(variants, na)
				}
				choices[ci] = variants
			}
			// Cartesian product over children (exponential in |Σ| at worst).
			atoms := []ctype.SAtom{{}}
			for ci := range m.Children {
				var next []ctype.SAtom
				for _, base := range atoms {
					for _, variant := range choices[ci] {
						if err := bud.Charge(1); err != nil {
							return err
						}
						merged := append(append(ctype.SAtom{}, base...), variant...)
						next = append(next, merged)
					}
				}
				atoms = next
			}
			// Rename the items into ⟨τ′, m_i⟩ pair symbols and recurse.
			for _, atom := range atoms {
				na := make(ctype.SAtom, 0, len(atom))
				for _, item := range atom {
					// Find the child whose label matches (unique).
					for ci, mc := range m.Children {
						if baseLabel(item.Sym) == mc.Label {
							if err := ensurePair(item.Sym, qinfo{mc, childPaths[ci]}); err != nil {
								return err
							}
							na = append(na, ctype.SItem{Sym: pairName(item.Sym, childPaths[ci]), Mult: item.Mult})
							break
						}
					}
				}
				disj = append(disj, na)
			}
		}
		ty.Mu[ps] = disj
		return nil
	}

	rootQ := qinfo{q.Root, "0"}
	empty := false
	for _, r := range w.Type.Roots {
		if poss[PathKey{r, "0"}] {
			if err := ensurePair(r, rootQ); err != nil {
				return nil, err
			}
			ty.Roots = append(ty.Roots, pairName(r, "0"))
		}
		if !cert[PathKey{r, "0"}] {
			// Some world typed by this root yields an empty answer.
			empty = true
		}
	}
	out.MayBeEmpty = empty && !w.Empty()
	if w.MayBeEmpty {
		out.MayBeEmpty = true
	}
	// Data nodes referenced by answer symbols.
	for _, tg := range ty.Sigma {
		if tg.IsNode() {
			out.Nodes[tg.Node] = w.Nodes[tg.Node]
		}
	}
	return out, nil
}

// PathKey indexes the Poss/Cert match sets by input symbol and query-node
// path ("0", "0/1", ...).
type PathKey struct {
	Sym  ctype.Symbol
	Path string
}

// MatchSets computes Poss and Cert (proof of Theorem 3.14): for each query
// node m (by path) and input symbol τ, whether q_m possibly / certainly
// produces output on rep(T_τ). Both are computed bottom-up over the query
// tree; Poss needs a least fixpoint over symbols at each level because
// sub-pattern matches may be provided by any descendant arrangement chosen
// among the disjuncts.
func MatchSets(w *itree.T, q query.Query) (poss, cert map[PathKey]bool) {
	poss = map[PathKey]bool{}
	cert = map[PathKey]bool{}
	syms := w.Type.Symbols()
	baseLabel := func(s ctype.Symbol) (tree.Label, bool) {
		return w.BaseLabel(s)
	}
	var rec func(m *query.Node, path string)
	rec = func(m *query.Node, path string) {
		childPaths := make([]string, len(m.Children))
		for i, c := range m.Children {
			childPaths[i] = fmt.Sprintf("%s/%d", path, i)
			rec(c, childPaths[i])
		}
		for _, s := range syms {
			l, ok := baseLabel(s)
			if !ok || l != m.Label {
				continue
			}
			eff := w.EffectiveCond(s)
			condAnd := eff.And(m.Cond)
			// Possible: some value and some disjunct feed every child.
			if condAnd.Satisfiable() {
				for _, a := range w.Type.DisjFor(s) {
					all := true
					for ci := range m.Children {
						found := false
						for _, item := range a {
							if poss[PathKey{item.Sym, childPaths[ci]}] {
								found = true
								break
							}
						}
						if !found {
							all = false
							break
						}
					}
					if all {
						poss[PathKey{s, path}] = true
						break
					}
				}
			}
			// Certain: every value satisfies the condition and every
			// disjunct guarantees a certain producer for every child.
			if eff.Satisfiable() && eff.Implies(m.Cond) {
				allDisj := true
				disj := w.Type.DisjFor(s)
				if len(disj) == 0 {
					allDisj = false
				}
				for _, a := range disj {
					for ci := range m.Children {
						found := false
						for _, item := range a {
							if (item.Mult == dtd.One || item.Mult == dtd.Plus) &&
								cert[PathKey{item.Sym, childPaths[ci]}] {
								found = true
								break
							}
						}
						if !found {
							allDisj = false
							break
						}
					}
					if !allDisj {
						break
					}
				}
				if allDisj {
					cert[PathKey{s, path}] = true
				}
			}
		}
	}
	rec(q.Root, "0")
	return poss, cert
}

// FullyAnswerable decides whether q can be completely answered from the
// data already present in the reachable incomplete tree — i.e. whether
// q(T) = q(T_d) for every T ∈ rep(T) (Corollary 3.15 / Remark 3.16,
// answering queries using the views provided by past query-answer pairs).
//
// The test follows the proof: construct q(T) and verify that no useful
// symbol carries missing (non-data-node) information; additionally the
// answer must not be able to silently drop data nodes or become empty while
// the data tree still matches.
// Results are memoized per (T, q) on a marked T (cache.go). It is
// FullyAnswerableBudgeted with a nil budget.
func FullyAnswerable(it *itree.T, q query.Query) (bool, error) {
	v, err := FullyAnswerableBudgeted(it, q, nil)
	return v == budget.Yes, err
}

// fullyOf decides FullyAnswerable from q(T).
func fullyOf(ans *itree.T) bool {
	eff := ans.EffectiveType()
	useful := eff.Useful()
	usefulRoots := false
	for _, r := range ans.Type.Roots {
		if useful[r] {
			usefulRoots = true
		}
	}
	if ans.MayBeEmpty && usefulRoots {
		// Some worlds answer empty while others do not.
		return false
	}
	for s := range useful {
		if !useful[s] {
			continue
		}
		if !ans.Type.TargetFor(s).IsNode() {
			return false
		}
	}
	// Data-node presence must not be optional.
	for s, d := range ans.Type.Mu {
		if !useful[s] {
			continue
		}
		for _, a := range d {
			for _, item := range a {
				if !useful[item.Sym] {
					continue
				}
				if ans.Type.TargetFor(item.Sym).IsNode() && item.Mult != dtd.One {
					return false
				}
			}
		}
	}
	return true
}

// CertainAnswerPrefix reports whether t is a certain prefix of the answers
// to q on rep(T) (Theorem 3.17).
func CertainAnswerPrefix(it *itree.T, q query.Query, t tree.Tree) (bool, error) {
	ans, err := Apply(it, q)
	if err != nil {
		return false, err
	}
	return ans.IsCertainPrefix(t), nil
}

// PossibleAnswerPrefix reports whether t is a possible prefix of the
// answers to q on rep(T) (Theorem 3.17).
func PossibleAnswerPrefix(it *itree.T, q query.Query, t tree.Tree) (bool, error) {
	ans, err := Apply(it, q)
	if err != nil {
		return false, err
	}
	return ans.IsPossiblePrefix(t), nil
}

// PossiblyNonEmpty reports whether q(T) ≠ ∅ for some T ∈ rep(T)
// (Corollary 3.18). Used by mediators to decide whether a source possibly
// holds information relevant to q. It is PossiblyNonEmptyBudgeted with a nil
// budget.
func PossiblyNonEmpty(it *itree.T, q query.Query) (bool, error) {
	v, err := PossiblyNonEmptyBudgeted(it, q, nil)
	return v == budget.Yes, err
}

// CertainlyNonEmpty reports whether q(T) ≠ ∅ for every T ∈ rep(T)
// (Corollary 3.18). It is CertainlyNonEmptyBudgeted with a nil budget.
func CertainlyNonEmpty(it *itree.T, q query.Query) (bool, error) {
	v, err := CertainlyNonEmptyBudgeted(it, q, nil)
	return v == budget.Yes, err
}
