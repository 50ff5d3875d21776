// Package ctype implements conditional tree types (Section 2, "Conditional
// tree types"): tree types extended with (i) disjunctions of multiplicity
// atoms, (ii) conditions on data values, and (iii) a specialization mapping σ
// from a specialized alphabet Σ′ to the base alphabet. Conditional tree
// types are the "missing information" half of incomplete trees.
//
// Symbols of Σ′ specialize either a base label in Σ or a data node id in N
// (incomplete trees view instantiated nodes as labels; Definition 2.7). The
// Target type captures this choice.
package ctype

import (
	"fmt"
	"sort"
	"strings"

	"incxml/internal/cond"
	"incxml/internal/dtd"
	"incxml/internal/tree"
)

// Symbol is an element of the specialized alphabet Σ′.
type Symbol string

// Target is the image of a symbol under the specialization mapping σ:
// either a base label in Σ or a data node in N.
type Target struct {
	// Node is the data node id when the symbol specializes a node; empty
	// otherwise.
	Node tree.NodeID
	// Label is the base label when Node is empty.
	Label tree.Label
}

// LabelTarget returns a σ-image that is a base label.
func LabelTarget(l tree.Label) Target { return Target{Label: l} }

// NodeTarget returns a σ-image that is a data node.
func NodeTarget(n tree.NodeID) Target { return Target{Node: n} }

// IsNode reports whether the target is a data node.
func (t Target) IsNode() bool { return t.Node != "" }

// String renders the target.
func (t Target) String() string {
	if t.IsNode() {
		return "@" + string(t.Node)
	}
	return string(t.Label)
}

// SItem is one s^ω component of a multiplicity atom over Σ′.
type SItem struct {
	Sym  Symbol
	Mult dtd.Mult
}

// SAtom is a multiplicity atom over Σ′ (pairwise distinct symbols).
type SAtom []SItem

// Find returns the item for sym, if present.
func (a SAtom) Find(sym Symbol) (SItem, bool) {
	for _, it := range a {
		if it.Sym == sym {
			return it, true
		}
	}
	return SItem{}, false
}

// String renders the atom ("eps" when empty).
func (a SAtom) String() string {
	if len(a) == 0 {
		return "eps"
	}
	parts := make([]string, len(a))
	for i, it := range a {
		parts[i] = string(it.Sym) + it.Mult.String()
	}
	return strings.Join(parts, " ")
}

// Clone returns a copy of the atom.
func (a SAtom) Clone() SAtom { return append(SAtom(nil), a...) }

// Disj is a disjunction of multiplicity atoms. An empty Disj admits no
// children arrangement at all (the symbol is a dead end); the singleton
// {ε} admits exactly leaves.
type Disj []SAtom

// String renders the disjunction.
func (d Disj) String() string {
	if len(d) == 0 {
		return "none"
	}
	parts := make([]string, len(d))
	for i, a := range d {
		parts[i] = a.String()
	}
	return strings.Join(parts, " v ")
}

// Clone returns a deep copy.
func (d Disj) Clone() Disj {
	out := make(Disj, len(d))
	for i, a := range d {
		out[i] = a.Clone()
	}
	return out
}

// Type is a conditional tree type (Σ′, R, µ, cond, σ, Σ). The base alphabet
// Σ is implicit in the σ images.
type Type struct {
	// Roots is the set R ⊆ Σ′ of admissible root symbols.
	Roots []Symbol
	// Mu maps each symbol to its disjunction of multiplicity atoms. Symbols
	// absent from Mu admit only leaves (ε), mirroring the dtd package.
	Mu map[Symbol]Disj
	// Cond maps each symbol to the condition its data value must satisfy.
	// Absent symbols are unconstrained (true).
	Cond map[Symbol]cond.Cond
	// Sigma is the specialization mapping σ. Every symbol used anywhere must
	// have an entry.
	Sigma map[Symbol]Target
}

// New returns an empty conditional tree type ready to be populated.
func New() *Type {
	return &Type{
		Mu:    map[Symbol]Disj{},
		Cond:  map[Symbol]cond.Cond{},
		Sigma: map[Symbol]Target{},
	}
}

// FromDTD lifts a plain tree type into a conditional tree type with the
// identity specialization and vacuous conditions.
func FromDTD(t *dtd.Type) *Type {
	out := New()
	for _, r := range t.Roots {
		out.Roots = append(out.Roots, Symbol(r))
	}
	for _, l := range t.Alphabet() {
		out.Sigma[Symbol(l)] = LabelTarget(l)
		atom := t.AtomFor(l)
		var s SAtom
		for _, it := range atom {
			s = append(s, SItem{Sym: Symbol(it.Label), Mult: it.Mult})
		}
		out.Mu[Symbol(l)] = Disj{s}
	}
	return out
}

// Symbols returns the sorted specialized alphabet Σ′.
func (t *Type) Symbols() []Symbol {
	set := map[Symbol]bool{}
	for _, r := range t.Roots {
		set[r] = true
	}
	for s, d := range t.Mu {
		set[s] = true
		for _, a := range d {
			for _, it := range a {
				set[it.Sym] = true
			}
		}
	}
	for s := range t.Sigma {
		set[s] = true
	}
	out := make([]Symbol, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DisjFor returns µ(s), defaulting to the single empty atom (leaves only).
func (t *Type) DisjFor(s Symbol) Disj {
	if d, ok := t.Mu[s]; ok {
		return d
	}
	return Disj{SAtom{}}
}

// CondFor returns cond(s), defaulting to true.
func (t *Type) CondFor(s Symbol) cond.Cond {
	if c, ok := t.Cond[s]; ok {
		return c
	}
	return cond.True()
}

// TargetFor returns σ(s). It panics if the symbol has no σ entry, which
// indicates a construction bug.
func (t *Type) TargetFor(s Symbol) Target {
	tg, ok := t.Sigma[s]
	if !ok {
		panic(fmt.Sprintf("ctype: symbol %q has no specialization target", s))
	}
	return tg
}

// Validate checks internal consistency: every used symbol has a σ entry and
// atoms have pairwise distinct symbols.
func (t *Type) Validate() error {
	for _, s := range t.Symbols() {
		if _, ok := t.Sigma[s]; !ok {
			return fmt.Errorf("ctype: symbol %q lacks a specialization target", s)
		}
	}
	for s, d := range t.Mu {
		for _, a := range d {
			seen := map[Symbol]bool{}
			for _, it := range a {
				if seen[it.Sym] {
					return fmt.Errorf("ctype: duplicate symbol %q in atom of %q", it.Sym, s)
				}
				seen[it.Sym] = true
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (t *Type) Clone() *Type {
	out := New()
	out.Roots = append([]Symbol(nil), t.Roots...)
	for s, d := range t.Mu {
		out.Mu[s] = d.Clone()
	}
	for s, c := range t.Cond {
		out.Cond[s] = c
	}
	for s, tg := range t.Sigma {
		out.Sigma[s] = tg
	}
	return out
}

// String renders the type in a textual form close to the paper's examples.
func (t *Type) String() string {
	var b strings.Builder
	roots := make([]string, len(t.Roots))
	for i, r := range t.Roots {
		roots[i] = string(r)
	}
	fmt.Fprintf(&b, "root: %s\n", strings.Join(roots, " "))
	for _, s := range t.Symbols() {
		if d, ok := t.Mu[s]; ok && !(len(d) == 1 && len(d[0]) == 0) {
			fmt.Fprintf(&b, "%s -> %s\n", s, d)
		}
		if c, ok := t.Cond[s]; ok && !c.IsTrue() {
			fmt.Fprintf(&b, "cond(%s) = %s\n", s, c)
		}
		if tg, ok := t.Sigma[s]; ok && tg.String() != string(s) {
			fmt.Fprintf(&b, "sigma(%s) = %s\n", s, tg)
		}
	}
	return b.String()
}

// Productive computes the set of productive symbols: those from which at
// least one finite data tree can be derived (the fixpoint underlying
// Lemma 2.5, analogous to CFG emptiness).
//
// A symbol s is productive iff cond(s) is satisfiable and some disjunct of
// µ(s) has all of its 1/+ items productive.
func (t *Type) Productive() map[Symbol]bool {
	prod := map[Symbol]bool{}
	syms := t.Symbols()
	for changed := true; changed; {
		changed = false
		for _, s := range syms {
			if prod[s] {
				continue
			}
			if !t.CondFor(s).Satisfiable() {
				continue
			}
			for _, a := range t.DisjFor(s) {
				ok := true
				for _, it := range a {
					if (it.Mult == dtd.One || it.Mult == dtd.Plus) && !prod[it.Sym] {
						ok = false
						break
					}
				}
				if ok {
					prod[s] = true
					changed = true
					break
				}
			}
		}
	}
	return prod
}

// Empty reports whether rep(τ) = ∅ (Lemma 2.5; PTIME).
func (t *Type) Empty() bool {
	prod := t.Productive()
	for _, r := range t.Roots {
		if prod[r] {
			return false
		}
	}
	return true
}

// Useful computes the set of useful symbols (Corollary 2.6): those that
// label some node of some tree in rep(τ). A symbol is useful iff it is
// productive and reachable from a productive root through viable disjuncts
// (disjuncts whose 1/+ items are all productive).
func (t *Type) Useful() map[Symbol]bool {
	prod := t.Productive()
	useful := map[Symbol]bool{}
	var visit func(Symbol)
	visit = func(s Symbol) {
		if useful[s] || !prod[s] {
			return
		}
		useful[s] = true
		for _, a := range t.DisjFor(s) {
			viable := true
			for _, it := range a {
				if (it.Mult == dtd.One || it.Mult == dtd.Plus) && !prod[it.Sym] {
					viable = false
					break
				}
			}
			if !viable {
				continue
			}
			for _, it := range a {
				if prod[it.Sym] {
					visit(it.Sym)
				}
			}
		}
	}
	for _, r := range t.Roots {
		visit(r)
	}
	return useful
}

// TrimUseless returns a copy of the type with useless symbols removed:
// they are dropped from roots, from Σ′, and from atoms where they appear
// with multiplicity ? or ⋆; atoms requiring them (1 or +) are dropped
// entirely. The result represents the same set of trees.
func (t *Type) TrimUseless() *Type {
	useful := t.Useful()
	out := New()
	for _, r := range t.Roots {
		if useful[r] {
			out.Roots = append(out.Roots, r)
		}
	}
	for s, d := range t.Mu {
		if !useful[s] {
			continue
		}
		var nd Disj
		for _, a := range d {
			var na SAtom
			dead := false
			for _, it := range a {
				if useful[it.Sym] {
					na = append(na, it)
					continue
				}
				if it.Mult == dtd.One || it.Mult == dtd.Plus {
					dead = true
					break
				}
				// ? and ⋆ items of useless symbols are simply dropped.
			}
			if !dead {
				nd = append(nd, na)
			}
		}
		out.Mu[s] = nd
	}
	for s, c := range t.Cond {
		if useful[s] {
			out.Cond[s] = c
		}
	}
	for s, tg := range t.Sigma {
		if useful[s] {
			out.Sigma[s] = tg
		}
	}
	return out
}

// Rename returns a copy of the type with every symbol passed through f.
// Used by product constructions to keep symbol names unique.
func (t *Type) Rename(f func(Symbol) Symbol) *Type {
	out := New()
	for _, r := range t.Roots {
		out.Roots = append(out.Roots, f(r))
	}
	for s, d := range t.Mu {
		nd := make(Disj, len(d))
		for i, a := range d {
			na := make(SAtom, len(a))
			for j, it := range a {
				na[j] = SItem{Sym: f(it.Sym), Mult: it.Mult}
			}
			nd[i] = na
		}
		out.Mu[f(s)] = nd
	}
	for s, c := range t.Cond {
		out.Cond[f(s)] = c
	}
	for s, tg := range t.Sigma {
		out.Sigma[f(s)] = tg
	}
	return out
}
