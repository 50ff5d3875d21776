package dtd

import (
	"strings"
	"testing"

	"incxml/internal/rat"
	"incxml/internal/tree"
)

// catalogType is Figure 1 of the paper.
const catalogSrc = `
root: catalog
catalog -> product+
product -> name price cat picture*
cat     -> subcat
`

func mkProduct(id string, price int64, pictures int) *tree.Node {
	n := tree.NewID(tree.NodeID(id), "product", rat.Zero,
		tree.NewID(tree.NodeID(id+".name"), "name", rat.Zero),
		tree.NewID(tree.NodeID(id+".price"), "price", rat.FromInt(price)),
		tree.NewID(tree.NodeID(id+".cat"), "cat", rat.Zero,
			tree.NewID(tree.NodeID(id+".sub"), "subcat", rat.Zero)),
	)
	for i := 0; i < pictures; i++ {
		n.Children = append(n.Children, tree.New("picture", rat.Zero))
	}
	return n
}

func TestParseCatalog(t *testing.T) {
	ty := MustParse(catalogSrc)
	if len(ty.Roots) != 1 || ty.Roots[0] != "catalog" {
		t.Fatalf("roots = %v", ty.Roots)
	}
	atom := ty.AtomFor("product")
	if len(atom) != 4 {
		t.Fatalf("product atom = %v", atom)
	}
	if it, ok := atom.Find("picture"); !ok || it.Mult != Star {
		t.Errorf("picture item = %v %v", it, ok)
	}
	if it, ok := atom.Find("name"); !ok || it.Mult != One {
		t.Errorf("name item = %v %v", it, ok)
	}
	if got := ty.AtomFor("subcat"); len(got) != 0 {
		t.Errorf("subcat atom should be eps, got %v", got)
	}
	alpha := ty.Alphabet()
	if len(alpha) != 7 {
		t.Errorf("alphabet = %v", alpha)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                        // no root
		"catalog -> product",      // no root
		"root: a\nroot: b",        // duplicate root
		"root:",                   // empty root
		"root: a\nb - c",          // malformed rule
		"root: a\na -> b b",       // duplicate label in atom
		"root: a\na -> b\na -> c", // duplicate rule
		"root: a\n -> b",          // empty name
		"root: a\na -> *",         // bare multiplicity
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	ty := MustParse("# a comment\nroot: a\n\na -> b?\n")
	if it, ok := ty.AtomFor("a").Find("b"); !ok || it.Mult != Opt {
		t.Errorf("optional b not parsed: %v %v", it, ok)
	}
}

func TestRoundTrip(t *testing.T) {
	ty := MustParse(catalogSrc)
	again := MustParse(ty.String())
	if ty.String() != again.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", ty, again)
	}
}

func TestValidateCatalog(t *testing.T) {
	ty := MustParse(catalogSrc)
	good := tree.Tree{Root: tree.NewID("c", "catalog", rat.Zero,
		mkProduct("p1", 120, 0),
		mkProduct("p2", 199, 2),
	)}
	if err := ty.Validate(good); err != nil {
		t.Errorf("valid catalog rejected: %v", err)
	}
}

func TestValidateViolations(t *testing.T) {
	ty := MustParse(catalogSrc)
	cases := []struct {
		name string
		d    tree.Tree
	}{
		{"empty tree", tree.Empty()},
		{"wrong root", tree.Tree{Root: tree.New("product", rat.Zero)}},
		{"no products", tree.Tree{Root: tree.New("catalog", rat.Zero)}},
		{"product missing price", tree.Tree{Root: tree.New("catalog", rat.Zero,
			tree.New("product", rat.Zero,
				tree.New("name", rat.Zero),
				tree.New("cat", rat.Zero, tree.New("subcat", rat.Zero))))}},
		{"two names", tree.Tree{Root: tree.New("catalog", rat.Zero,
			tree.New("product", rat.Zero,
				tree.New("name", rat.Zero),
				tree.New("name", rat.Zero),
				tree.New("price", rat.Zero),
				tree.New("cat", rat.Zero, tree.New("subcat", rat.Zero))))}},
		{"foreign child", tree.Tree{Root: tree.New("catalog", rat.Zero,
			tree.New("product", rat.Zero,
				tree.New("name", rat.Zero),
				tree.New("price", rat.Zero),
				tree.New("weird", rat.Zero),
				tree.New("cat", rat.Zero, tree.New("subcat", rat.Zero))))}},
		{"leaf with children", tree.Tree{Root: tree.New("catalog", rat.Zero,
			tree.New("product", rat.Zero,
				tree.New("name", rat.Zero, tree.New("price", rat.Zero)),
				tree.New("price", rat.Zero),
				tree.New("cat", rat.Zero, tree.New("subcat", rat.Zero))))}},
	}
	for _, c := range cases {
		if ty.Conforms(c.d) {
			t.Errorf("%s: invalid tree accepted", c.name)
		}
	}
}

func TestValidateStarAndOpt(t *testing.T) {
	ty := MustParse("root: r\nr -> a* b? c+\n")
	ok := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("c", rat.Zero))}
	if err := ty.Validate(ok); err != nil {
		t.Errorf("minimal r rejected: %v", err)
	}
	many := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", rat.Zero), tree.New("a", rat.Zero), tree.New("a", rat.Zero),
		tree.New("b", rat.Zero),
		tree.New("c", rat.Zero), tree.New("c", rat.Zero))}
	if err := ty.Validate(many); err != nil {
		t.Errorf("many-children r rejected: %v", err)
	}
	twoB := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("b", rat.Zero), tree.New("b", rat.Zero), tree.New("c", rat.Zero))}
	if ty.Conforms(twoB) {
		t.Error("two optional b accepted")
	}
	noC := tree.Tree{Root: tree.New("r", rat.Zero, tree.New("a", rat.Zero))}
	if ty.Conforms(noC) {
		t.Error("missing required c accepted")
	}
}

func TestMultBounds(t *testing.T) {
	cases := []struct {
		m      Mult
		lo, hi int
	}{{One, 1, 1}, {Opt, 0, 1}, {Plus, 1, -1}, {Star, 0, -1}}
	for _, c := range cases {
		lo, hi := c.m.Bounds()
		if lo != c.lo || hi != c.hi {
			t.Errorf("Bounds(%c) = %d,%d", c.m, lo, hi)
		}
		if m, ok := MultOf(c.lo, c.hi); !ok || m != c.m {
			t.Errorf("MultOf(%d,%d) = %c,%v", c.lo, c.hi, m, ok)
		}
	}
	// Summed bounds such as 1 + ? = [1,2] have no multiplicity.
	if m, ok := MultOf(1, 2); ok {
		t.Errorf("MultOf(1,2) = %c, want none", m)
	}
}

func TestAtomSatisfied(t *testing.T) {
	atom := Atom{{"a", One}, {"b", Star}}
	cases := []struct {
		counts map[tree.Label]int
		want   bool
	}{
		{map[tree.Label]int{"a": 1}, true},
		{map[tree.Label]int{"a": 1, "b": 5}, true},
		{map[tree.Label]int{}, false},
		{map[tree.Label]int{"a": 2}, false},
		{map[tree.Label]int{"a": 1, "c": 1}, false},
	}
	for i, c := range cases {
		if got := atom.Satisfied(c.counts); got != c.want {
			t.Errorf("case %d: Satisfied = %v, want %v", i, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	ty := MustParse(catalogSrc)
	s := ty.String()
	if !strings.Contains(s, "root: catalog") {
		t.Errorf("missing root line:\n%s", s)
	}
	if !strings.Contains(s, "product -> name price cat picture*") {
		t.Errorf("missing product rule:\n%s", s)
	}
	// ε rules are omitted.
	if strings.Contains(s, "subcat ->") {
		t.Errorf("eps rule printed:\n%s", s)
	}
}

func TestMultiRoot(t *testing.T) {
	ty := MustParse("root: a b\na -> c?\nb -> c?\n")
	if !ty.IsRoot("a") || !ty.IsRoot("b") || ty.IsRoot("c") {
		t.Error("IsRoot wrong")
	}
	if !ty.Conforms(tree.Tree{Root: tree.New("b", rat.Zero)}) {
		t.Error("alternative root rejected")
	}
}
