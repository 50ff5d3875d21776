// Package dtd implements the paper's simplified DTDs: tree types
// (Definition 2.2). A tree type assigns every element name a single
// multiplicity atom a1^ω1…ak^ωk with ω ∈ {1, ?, +, ⋆} constraining the
// children of nodes with that name, plus a set of admissible root labels.
//
// The textual syntax follows the paper:
//
//	root: catalog
//	catalog -> product+
//	product -> name price cat picture*
//	cat     -> subcat
//
// Element names without a rule may have no children (µ(a) = ε).
package dtd

import (
	"fmt"
	"sort"
	"strings"

	"incxml/internal/tree"
)

// Mult is a multiplicity symbol ω.
type Mult byte

// The four multiplicities of Definition 2.2.
const (
	One  Mult = '1' // exactly one child with this label
	Opt  Mult = '?' // at most one
	Plus Mult = '+' // at least one
	Star Mult = '*' // no restriction
)

// Bounds returns the occupancy range [lo, hi] for the multiplicity; hi is
// matching.Unbounded (-1) for + and ⋆.
func (m Mult) Bounds() (lo, hi int) {
	switch m {
	case One:
		return 1, 1
	case Opt:
		return 0, 1
	case Plus:
		return 1, -1
	case Star:
		return 0, -1
	default:
		// Programmer error only: Parse never constructs other values.
		panic(fmt.Sprintf("dtd: invalid multiplicity %q", byte(m)))
	}
}

// MultOf returns the multiplicity whose Bounds are [lo, hi], the inverse of
// Bounds; ok is false when none of the four has that range.
func MultOf(lo, hi int) (m Mult, ok bool) {
	for _, m := range [...]Mult{One, Opt, Plus, Star} {
		if l, h := m.Bounds(); l == lo && h == hi {
			return m, true
		}
	}
	return 0, false
}

// String renders the multiplicity as written after a label ("" for 1).
func (m Mult) String() string {
	if m == One {
		return ""
	}
	return string(byte(m))
}

// Item is one a^ω component of a multiplicity atom.
type Item struct {
	Label tree.Label
	Mult  Mult
}

// Atom is a multiplicity atom: a sequence of Items with pairwise distinct
// labels. The empty atom ε forbids all children.
type Atom []Item

// AtomOf builds an atom, validating label distinctness.
func AtomOf(items ...Item) (Atom, error) {
	seen := map[tree.Label]bool{}
	for _, it := range items {
		if seen[it.Label] {
			return nil, fmt.Errorf("dtd: duplicate label %q in multiplicity atom", it.Label)
		}
		seen[it.Label] = true
	}
	return Atom(items), nil
}

// Find returns the item for the given label, if present.
func (a Atom) Find(l tree.Label) (Item, bool) {
	for _, it := range a {
		if it.Label == l {
			return it, true
		}
	}
	return Item{}, false
}

// String renders the atom in the paper's syntax ("ε" when empty).
func (a Atom) String() string {
	if len(a) == 0 {
		return "eps"
	}
	parts := make([]string, len(a))
	for i, it := range a {
		parts[i] = string(it.Label) + it.Mult.String()
	}
	return strings.Join(parts, " ")
}

// Satisfied reports whether a multiset of child labels (as counts) satisfies
// the atom: all labels among the atom's labels and every count within its
// multiplicity bounds.
func (a Atom) Satisfied(counts map[tree.Label]int) bool {
	for l := range counts {
		if _, ok := a.Find(l); !ok && counts[l] > 0 {
			return false
		}
	}
	for _, it := range a {
		lo, hi := it.Mult.Bounds()
		c := counts[it.Label]
		if c < lo || (hi >= 0 && c > hi) {
			return false
		}
	}
	return true
}

// Type is a tree type τ = (Σ, R, µ). The alphabet is implicit: the labels
// mentioned in Roots and Mu.
type Type struct {
	// Roots is the set of admissible root labels R.
	Roots []tree.Label
	// Mu maps each element name to its multiplicity atom. Absent names get ε.
	Mu map[tree.Label]Atom
}

// Alphabet returns the sorted label alphabet Σ of the type.
func (t *Type) Alphabet() []tree.Label {
	set := map[tree.Label]bool{}
	for _, r := range t.Roots {
		set[r] = true
	}
	for a, atom := range t.Mu {
		set[a] = true
		for _, it := range atom {
			set[it.Label] = true
		}
	}
	out := make([]tree.Label, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AtomFor returns µ(a), defaulting to ε.
func (t *Type) AtomFor(a tree.Label) Atom { return t.Mu[a] }

// IsRoot reports whether l ∈ R.
func (t *Type) IsRoot(l tree.Label) bool {
	for _, r := range t.Roots {
		if r == l {
			return true
		}
	}
	return false
}

// Validate reports whether the data tree satisfies the type, with a
// descriptive error identifying the first violation found.
func (t *Type) Validate(d tree.Tree) error {
	if d.Root == nil {
		return fmt.Errorf("dtd: empty tree has no root label in R")
	}
	if !t.IsRoot(d.Root.Label) {
		return fmt.Errorf("dtd: root label %q not among roots %v", d.Root.Label, t.Roots)
	}
	var rec func(n *tree.Node) error
	rec = func(n *tree.Node) error {
		atom := t.AtomFor(n.Label)
		counts := map[tree.Label]int{}
		for _, c := range n.Children {
			counts[c.Label]++
		}
		if !atom.Satisfied(counts) {
			return fmt.Errorf("dtd: node %s (label %q) children %v violate %q -> %s",
				n.ID, n.Label, fmtCounts(counts), n.Label, atom)
		}
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(d.Root)
}

// Conforms reports whether the data tree satisfies the type.
func (t *Type) Conforms(d tree.Tree) bool { return t.Validate(d) == nil }

func fmtCounts(counts map[tree.Label]int) string {
	keys := make([]string, 0, len(counts))
	for l := range counts {
		keys = append(keys, string(l))
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, counts[tree.Label(k)])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// String renders the type in the paper's textual syntax.
func (t *Type) String() string {
	var b strings.Builder
	roots := make([]string, len(t.Roots))
	for i, r := range t.Roots {
		roots[i] = string(r)
	}
	fmt.Fprintf(&b, "root: %s\n", strings.Join(roots, " "))
	names := make([]string, 0, len(t.Mu))
	for a := range t.Mu {
		names = append(names, string(a))
	}
	sort.Strings(names)
	for _, a := range names {
		atom := t.Mu[tree.Label(a)]
		if len(atom) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s -> %s\n", a, atom)
	}
	return b.String()
}

// Parse reads a tree type from the paper's textual syntax. Lines are either
// "root: a b c" (exactly one required) or "name -> item item ...", where each
// item is a label optionally suffixed by ?, + or *. Blank lines and lines
// starting with '#' are ignored.
func Parse(src string) (*Type, error) {
	t := &Type{Mu: map[tree.Label]Atom{}}
	sawRoot := false
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "root:"); ok {
			if sawRoot {
				return nil, fmt.Errorf("dtd: line %d: duplicate root declaration", lineNo+1)
			}
			sawRoot = true
			for _, f := range strings.Fields(rest) {
				t.Roots = append(t.Roots, tree.Label(f))
			}
			if len(t.Roots) == 0 {
				return nil, fmt.Errorf("dtd: line %d: empty root declaration", lineNo+1)
			}
			continue
		}
		name, rhs, ok := strings.Cut(line, "->")
		if !ok {
			return nil, fmt.Errorf("dtd: line %d: expected 'name -> items' in %q", lineNo+1, line)
		}
		label := tree.Label(strings.TrimSpace(name))
		if label == "" {
			return nil, fmt.Errorf("dtd: line %d: empty element name", lineNo+1)
		}
		if _, dup := t.Mu[label]; dup {
			return nil, fmt.Errorf("dtd: line %d: duplicate rule for %q", lineNo+1, label)
		}
		var items []Item
		for _, f := range strings.Fields(rhs) {
			if f == "eps" {
				continue
			}
			it := Item{Mult: One}
			switch f[len(f)-1] {
			case '?', '+', '*':
				it.Mult = Mult(f[len(f)-1])
				f = f[:len(f)-1]
			}
			if f == "" {
				return nil, fmt.Errorf("dtd: line %d: bare multiplicity", lineNo+1)
			}
			it.Label = tree.Label(f)
			items = append(items, it)
		}
		atom, err := AtomOf(items...)
		if err != nil {
			return nil, fmt.Errorf("dtd: line %d: %v", lineNo+1, err)
		}
		t.Mu[label] = atom
	}
	if !sawRoot {
		return nil, fmt.Errorf("dtd: missing root declaration")
	}
	return t, nil
}

// MustParse is Parse that panics on error; for literals in tests and tables.
func MustParse(src string) *Type {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}
