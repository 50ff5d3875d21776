package answer

import (
	"testing"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/refine"
	"incxml/internal/tree"
)

func v(n int64) rat.Rat { return rat.FromInt(n) }

// example22 rebuilds the incomplete tree T of Example 2.2 (Figure 7 left).
func example22() *itree.T {
	it := itree.New()
	it.Nodes["r"] = itree.NodeInfo{Label: "root", Value: v(0)}
	it.Nodes["n"] = itree.NodeInfo{Label: "a", Value: v(0)}
	ty := it.Type
	ty.Roots = []ctype.Symbol{"r"}
	ty.Sigma["r"] = ctype.NodeTarget("r")
	ty.Sigma["n"] = ctype.NodeTarget("n")
	ty.Sigma["a"] = ctype.LabelTarget("a")
	ty.Sigma["b"] = ctype.LabelTarget("b")
	ty.Mu["r"] = ctype.Disj{ctype.SAtom{
		{Sym: "n", Mult: dtd.One}, {Sym: "a", Mult: dtd.Star}}}
	ty.Mu["a"] = ctype.Disj{ctype.SAtom{{Sym: "b", Mult: dtd.Star}}}
	ty.Mu["n"] = ctype.Disj{ctype.SAtom{{Sym: "b", Mult: dtd.Star}}}
	ty.Cond["r"] = cond.EqInt(0)
	ty.Cond["n"] = cond.EqInt(0)
	ty.Cond["a"] = cond.NeInt(0)
	return it
}

// example22Query is the query q of Figure 7 (right): root / a / b.
func example22Query() query.Query {
	return query.Query{Root: query.N("root", cond.True(),
		query.N("a", cond.True(),
			query.N("b", cond.True())))}
}

func TestApplyExample22StrongRepresentation(t *testing.T) {
	it := example22()
	q := example22Query()
	ans, err := Apply(it, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ans.Validate(); err != nil {
		t.Fatal(err)
	}
	// Oracle: enumerate the worlds, apply q to each, and compare the answer
	// sets (canonically, relative to the data nodes).
	bounds := itree.Bounds{Values: []rat.Rat{v(0), v(1)}, MaxRepeat: 2, MaxDepth: 4, MaxTrees: 20000}
	nset := map[tree.NodeID]bool{"r": true, "n": true}
	want := map[string]bool{}
	for _, w := range it.Enumerate(bounds) {
		want[itree.CanonRelative(q.Eval(w), nset)] = true
	}
	got := map[string]bool{}
	for _, a := range ans.Enumerate(bounds) {
		got[itree.CanonRelative(a, nset)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("answer set missing: %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("answer set has extra: %s", k)
		}
	}
	// Paper-stated facts: the empty answer is possible; answers may contain
	// r but not n; answers may contain both.
	if !ans.MayBeEmpty {
		t.Error("empty answer not represented")
	}
	justR := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.New("a", v(1), tree.New("b", v(0))))}
	if !ans.Member(justR) {
		t.Error("answer with r but not n rejected")
	}
	withN := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("n", "a", v(0), tree.New("b", v(0))))}
	if !ans.Member(withN) {
		t.Error("answer with r and n rejected")
	}
	// n alone cannot appear without a b below it (µ′(n) = b+ in the paper).
	nNoB := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("n", "a", v(0)))}
	if ans.Member(nNoB) {
		t.Error("answer with childless n accepted (pattern requires b below a)")
	}
}

func TestApplyWithBar(t *testing.T) {
	it := example22()
	q := query.Query{Root: query.N("root", cond.True(),
		query.Bar("a", cond.True()))}
	ans, err := Apply(it, q)
	if err != nil {
		t.Fatal(err)
	}
	bounds := itree.Bounds{Values: []rat.Rat{v(0), v(1)}, MaxRepeat: 1, MaxDepth: 4, MaxTrees: 20000}
	nset := map[tree.NodeID]bool{"r": true, "n": true}
	want := map[string]bool{}
	for _, w := range it.Enumerate(bounds) {
		want[itree.CanonRelative(q.Eval(w), nset)] = true
	}
	got := map[string]bool{}
	for _, a := range ans.Enumerate(bounds) {
		got[itree.CanonRelative(a, nset)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("bar answer set missing: %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("bar answer set has extra: %s", k)
		}
	}
}

func TestNonEmptinessModalities(t *testing.T) {
	it := example22()
	// root/a/b: possible (n might have b children) but not certain (b* may
	// be empty everywhere).
	q := example22Query()
	if got, err := PossiblyNonEmpty(it, q); err != nil || !got {
		t.Errorf("PossiblyNonEmpty = %v, %v; want true", got, err)
	}
	if got, err := CertainlyNonEmpty(it, q); err != nil || got {
		t.Errorf("CertainlyNonEmpty = %v, %v; want false", got, err)
	}
	// root/a: certain — the mandatory data node n is always an a-child.
	qa := query.Query{Root: query.N("root", cond.True(), query.N("a", cond.True()))}
	if got, err := CertainlyNonEmpty(it, qa); err != nil || !got {
		t.Errorf("CertainlyNonEmpty(root/a) = %v, %v; want true", got, err)
	}
	// root/a{=5}: n has value 0 and other a's are unconstrained, so possible
	// but not certain.
	q5 := query.Query{Root: query.N("root", cond.True(), query.N("a", cond.EqInt(5)))}
	if got, _ := PossiblyNonEmpty(it, q5); !got {
		t.Error("PossiblyNonEmpty(root/a=5) = false; want true")
	}
	if got, _ := CertainlyNonEmpty(it, q5); got {
		t.Error("CertainlyNonEmpty(root/a=5) = true; want false")
	}
	// Impossible query: wrong root label.
	qx := query.Query{Root: query.N("x", cond.True())}
	if got, _ := PossiblyNonEmpty(it, qx); got {
		t.Error("PossiblyNonEmpty(x) = true; want false")
	}
	// An unmarked tree has no decision memo: after a mutation that admits
	// the empty world, root/a is no longer certain.
	it.MayBeEmpty = true
	if got, err := CertainlyNonEmpty(it, qa); err != nil || got {
		t.Errorf("CertainlyNonEmpty(root/a) after the mutation = %v, %v; want false", got, err)
	}
}

func TestAnswerPrefixModalities(t *testing.T) {
	it := example22()
	q := query.Query{Root: query.N("root", cond.True(), query.N("a", cond.True()))}
	// The root alone is a certain answer prefix (the match always succeeds
	// thanks to n).
	rOnly := tree.Tree{Root: tree.NewID("r", "root", v(0))}
	if got, err := CertainAnswerPrefix(it, q, rOnly); err != nil || !got {
		t.Errorf("CertainAnswerPrefix(r) = %v, %v; want true", got, err)
	}
	// r with n is also certain.
	withN := tree.Tree{Root: tree.NewID("r", "root", v(0), tree.NewID("n", "a", v(0)))}
	if got, _ := CertainAnswerPrefix(it, q, withN); !got {
		t.Error("CertainAnswerPrefix(r,n) = false; want true")
	}
	// r with an extra a: possible, not certain.
	withA := tree.Tree{Root: tree.NewID("r", "root", v(0), tree.New("a", v(3)))}
	if got, _ := PossibleAnswerPrefix(it, q, withA); !got {
		t.Error("PossibleAnswerPrefix(extra a) = false; want true")
	}
	if got, _ := CertainAnswerPrefix(it, q, withA); got {
		t.Error("CertainAnswerPrefix(extra a) = true; want false")
	}
	// An a with value 0 beside n is impossible (cond(a) is != 0, and n can
	// host only one of them).
	twoZero := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.New("a", v(0)), tree.New("a", v(0)))}
	if got, _ := PossibleAnswerPrefix(it, q, twoZero); got {
		t.Error("PossibleAnswerPrefix(two a=0) = true; want false")
	}
}

// catalogFixture builds the refined catalog state of Example 3.1 after
// Queries 1 and 2, returning the reachable incomplete tree.
func catalogFixture(t *testing.T) *itree.T {
	t.Helper()
	sigma := []tree.Label{"catalog", "product", "name", "price", "cat", "subcat", "picture"}
	source := dtd.MustParse(`
root: catalog
catalog -> product+
product -> name price cat picture*
cat     -> subcat
`)
	prod := func(id string, name, price, sub int64, pics ...int64) *tree.Node {
		n := tree.NewID(tree.NodeID(id), "product", v(0),
			tree.NewID(tree.NodeID(id+".name"), "name", v(name)),
			tree.NewID(tree.NodeID(id+".price"), "price", v(price)),
			tree.NewID(tree.NodeID(id+".cat"), "cat", v(1),
				tree.NewID(tree.NodeID(id+".sub"), "subcat", v(sub))))
		for i, p := range pics {
			n.Children = append(n.Children,
				tree.NewID(tree.NodeID(id+".pic")+tree.NodeID(rune('0'+i)), "picture", v(p)))
		}
		return n
	}
	world := tree.Tree{Root: tree.NewID("c0", "catalog", v(0),
		prod("canon", 10, 120, 2, 20),
		prod("nikon", 11, 199, 2),
		prod("sony", 12, 175, 3, 99),
		prod("olympus", 13, 250, 2, 21),
	)}
	q1 := query.MustParse(`catalog
  product
    name
    price {< 200}
    cat {= 1}
      subcat
`)
	q2 := query.MustParse(`catalog
  product
    name
    cat {= 1}
      subcat {= 2}
    picture!
`)
	r := refine.NewRefiner(sigma, source)
	if _, err := r.ObserveOn(world, q1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ObserveOn(world, q2); err != nil {
		t.Fatal(err)
	}
	return r.Reachable()
}

func TestFullyAnswerableCatalog(t *testing.T) {
	it := catalogFixture(t)
	// Example 3.4, Query 3: cameras under $100 with a picture — fully
	// answerable from local data (we know all cheap cameras and all
	// pictured cameras).
	q3 := query.MustParse(`catalog
  product
    name
    price {< 100}
    cat {= 1}
      subcat {= 2}
    picture!
`)
	got, err := FullyAnswerable(it, q3)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("Query 3 should be fully answerable after Queries 1 and 2 (Example 3.4)")
	}
	// Example 3.4, Query 4: all cameras — NOT fully answerable (expensive
	// pictureless cameras may exist unseen).
	q4 := query.MustParse(`catalog
  product
    name
    cat {= 1}
      subcat {= 2}
`)
	got, err = FullyAnswerable(it, q4)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("Query 4 should not be fully answerable (Example 3.4)")
	}
}

func TestFullyAnswerableOracle(t *testing.T) {
	// For a fully answerable query, every bounded world yields exactly the
	// same answer as the data tree.
	it := catalogFixture(t)
	q3 := query.MustParse(`catalog
  product
    name
    price {< 100}
    cat {= 1}
      subcat {= 2}
    picture!
`)
	td := it.DataTree()
	wantAns := q3.Eval(td)
	// Worlds: mutate the data tree with extra products of various shapes.
	extras := []*tree.Node{
		nil,
		tree.New("product", v(0),
			tree.New("name", v(40)), tree.New("price", v(500)),
			tree.New("cat", v(1), tree.New("subcat", v(2)))),
		tree.New("product", v(0),
			tree.New("name", v(41)), tree.New("price", v(300)),
			tree.New("cat", v(2), tree.New("subcat", v(3)))),
	}
	for i, extra := range extras {
		w := td.Clone()
		if extra != nil {
			w.Root.Children = append(w.Root.Children, extra)
		}
		if !it.Member(w) {
			continue // not a possible world; skip
		}
		if got := q3.Eval(w); !got.Equal(wantAns) {
			t.Errorf("world %d: answer differs from data-tree answer", i)
		}
	}
}

func TestMatchSetsExample22(t *testing.T) {
	it := example22()
	q := example22Query() // root / a / b
	poss, cert := MatchSets(it.TrimUseless(), q)
	// The root symbol possibly matches (n might have b children) but not
	// certainly (b* can be empty).
	if !poss[PathKey{Sym: "r", Path: "0"}] {
		t.Error("root not in Poss")
	}
	if cert[PathKey{Sym: "r", Path: "0"}] {
		t.Error("root in Cert despite optional b")
	}
	// The a-level: both the data node n and the label symbol a possibly
	// host the pattern's a-child.
	if !poss[PathKey{Sym: "n", Path: "0/0"}] {
		t.Error("n not in Poss at the a level")
	}
	if !poss[PathKey{Sym: "a", Path: "0/0"}] {
		t.Error("a not in Poss at the a level")
	}
	// The b leaf is certain for the b symbol (label and condition match).
	if !cert[PathKey{Sym: "b", Path: "0/0/0"}] {
		t.Error("b leaf not in Cert")
	}
	// Making b mandatory under n flips the chain to certain.
	it2 := example22()
	it2.Type.Mu["n"] = ctype.Disj{ctype.SAtom{{Sym: "b", Mult: dtd.Plus}}}
	_, cert2 := MatchSets(it2.TrimUseless(), q)
	if !cert2[PathKey{Sym: "n", Path: "0/0"}] {
		t.Error("n with mandatory b not in Cert")
	}
	if !cert2[PathKey{Sym: "r", Path: "0"}] {
		t.Error("root not certain despite mandatory chain")
	}
}

func TestApplyRejectsInvalidQuery(t *testing.T) {
	it := example22()
	bad := query.Query{Root: query.N("root", cond.True(),
		query.N("a", cond.EqInt(1)), query.N("a", cond.EqInt(2)))}
	if _, err := Apply(it, bad); err == nil {
		t.Error("duplicate-sibling query accepted")
	}
	if _, err := Apply(it, query.Query{}); err == nil {
		t.Error("empty query accepted")
	}
}
