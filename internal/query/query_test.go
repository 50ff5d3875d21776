package query

import (
	"math/rand"
	"strings"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// Categorical data values for the catalog example, encoded as rationals
// (the paper's data domain is Q; names/categories become code points).
const (
	valElec     = 1
	valCamera   = 2
	valCDPlayer = 3
	valCanon    = 10
	valNikon    = 11
	valSony     = 12
	valOlympus  = 13
	valCJpg     = 20
	valOJpg     = 21
)

func v(n int64) rat.Rat { return rat.FromInt(n) }

// catalogSource is the full input document behind Figures 6, 8 and 9.
func catalogSource() tree.Tree {
	prod := func(id string, name, price, sub int64, pics ...int64) *tree.Node {
		n := tree.NewID(tree.NodeID(id), "product", rat.Zero,
			tree.NewID(tree.NodeID(id+".name"), "name", v(name)),
			tree.NewID(tree.NodeID(id+".price"), "price", v(price)),
			tree.NewID(tree.NodeID(id+".cat"), "cat", v(valElec),
				tree.NewID(tree.NodeID(id+".sub"), "subcat", v(sub))),
		)
		for i, p := range pics {
			n.Children = append(n.Children,
				tree.NewID(tree.NodeID(id+".pic"+string(rune('0'+i))), "picture", v(p)))
		}
		return n
	}
	return tree.Tree{Root: tree.NewID("c0", "catalog", rat.Zero,
		prod("canon", valCanon, 120, valCamera, valCJpg),
		prod("nikon", valNikon, 199, valCamera),
		prod("sony", valSony, 175, valCDPlayer, 99),
		prod("olympus", valOlympus, 250, valCamera, valOJpg),
	)}
}

// query1 is Figure 2: name, price and subcategories of electronics products
// with price < 200.
func query1() Query {
	return Query{Root: N("catalog", cond.True(),
		N("product", cond.True(),
			N("name", cond.True()),
			N("price", cond.LtInt(200)),
			N("cat", cond.EqInt(valElec),
				N("subcat", cond.True()))))}
}

// query2 is Figure 3: name and picture of all cameras whose picture appears.
func query2() Query {
	return Query{Root: N("catalog", cond.True(),
		N("product", cond.True(),
			N("name", cond.True()),
			N("cat", cond.EqInt(valElec),
				N("subcat", cond.EqInt(valCamera))),
			Bar("picture", cond.True())))}
}

func TestValidate(t *testing.T) {
	if err := query1().Validate(); err != nil {
		t.Errorf("query1 invalid: %v", err)
	}
	if err := (Query{}).Validate(); err == nil {
		t.Error("empty query accepted")
	}
	barInternal := Query{Root: &Node{Label: "a", Extract: true, Cond: cond.True(),
		Children: []*Node{N("b", cond.True())}}}
	if err := barInternal.Validate(); err == nil {
		t.Error("bar on internal node accepted")
	}
	dupSiblings := Query{Root: N("r", cond.True(),
		N("a", cond.EqInt(1)), N("a", cond.EqInt(2)))}
	if err := dupSiblings.Validate(); err == nil {
		t.Error("duplicate sibling labels accepted")
	}
	// A bar sibling conflicts with a plain sibling of the same label too.
	mixed := Query{Root: N("r", cond.True(),
		N("a", cond.True()), Bar("a", cond.True()))}
	if err := mixed.Validate(); err == nil {
		t.Error("a and a-bar siblings accepted")
	}
}

func TestIsLinear(t *testing.T) {
	if query1().IsLinear() {
		t.Error("query1 is branching, reported linear")
	}
	lin := Path([]tree.Label{"catalog", "product", "price"},
		[]cond.Cond{cond.True(), cond.True(), cond.LtInt(200)}, false)
	if !lin.IsLinear() {
		t.Error("path query reported non-linear")
	}
	if lin.Size() != 3 || lin.Depth() != 3 {
		t.Errorf("Size/Depth = %d/%d", lin.Size(), lin.Depth())
	}
}

func TestEvalQuery1Figure6(t *testing.T) {
	ans := query1().Eval(catalogSource())
	// Canon, Nikon, Sony match (price < 200, elec); Olympus (250) does not.
	ids := ans.IDs()
	for _, want := range []string{"c0", "canon", "canon.name", "canon.price",
		"canon.cat", "canon.sub", "nikon", "sony", "sony.sub"} {
		if !ids[tree.NodeID(want)] {
			t.Errorf("answer missing node %s", want)
		}
	}
	for _, reject := range []string{"olympus", "canon.pic0", "sony.pic0"} {
		if ids[tree.NodeID(reject)] {
			t.Errorf("answer contains unexpected node %s", reject)
		}
	}
	// 1 catalog + 3 products × 5 nodes (name, price, cat, subcat, product).
	if got := ans.Size(); got != 16 {
		t.Errorf("answer size = %d, want 16", got)
	}
	// The answer is a prefix of the input relative to its own nodes.
	if !ans.IsPrefixOf(catalogSource(), ids) {
		t.Error("answer is not a prefix of the input")
	}
}

func TestEvalQuery2Figure6(t *testing.T) {
	ans := query2().Eval(catalogSource())
	ids := ans.IDs()
	// Cameras with pictures: Canon and Olympus.
	for _, want := range []string{"c0", "canon", "canon.name", "canon.cat",
		"canon.sub", "canon.pic0", "olympus", "olympus.pic0"} {
		if !ids[tree.NodeID(want)] {
			t.Errorf("answer missing node %s", want)
		}
	}
	for _, reject := range []string{"nikon", "sony", "canon.price", "olympus.price"} {
		if ids[tree.NodeID(reject)] {
			t.Errorf("answer contains unexpected node %s", reject)
		}
	}
}

func TestEvalQuery3Figure4(t *testing.T) {
	// Query 3: cameras under $100 with at least one picture — no match in
	// the source (cheapest camera is 120).
	q := Query{Root: N("catalog", cond.True(),
		N("product", cond.True(),
			N("name", cond.True()),
			N("price", cond.LtInt(100)),
			N("cat", cond.EqInt(valElec),
				N("subcat", cond.EqInt(valCamera))),
			Bar("picture", cond.True())))}
	if ans := q.Eval(catalogSource()); !ans.IsEmpty() {
		t.Errorf("query3 should have empty answer, got:\n%s", ans)
	}
}

func TestEvalQuery4Figure5(t *testing.T) {
	// Query 4: list all cameras.
	q := Query{Root: N("catalog", cond.True(),
		N("product", cond.True(),
			N("name", cond.True()),
			N("cat", cond.EqInt(valElec),
				N("subcat", cond.EqInt(valCamera)))))}
	ans := q.Eval(catalogSource())
	ids := ans.IDs()
	for _, want := range []string{"canon", "nikon", "olympus"} {
		if !ids[tree.NodeID(want)] {
			t.Errorf("missing camera %s", want)
		}
	}
	if ids["sony"] {
		t.Error("cdplayer returned as camera")
	}
}

func TestEvalBarExtractsSubtree(t *testing.T) {
	src := tree.Tree{Root: tree.NewID("r", "root", rat.Zero,
		tree.NewID("x", "a", v(1),
			tree.NewID("y", "b", v(2),
				tree.NewID("z", "c", v(3)))))}
	q := Query{Root: N("root", cond.True(), Bar("a", cond.True()))}
	ans := q.Eval(src)
	if ans.Size() != 4 {
		t.Errorf("bar extraction size = %d, want 4 (whole subtree)", ans.Size())
	}
	// Without the bar, only the matched node itself is returned.
	q2 := Query{Root: N("root", cond.True(), N("a", cond.True()))}
	if got := q2.Eval(src).Size(); got != 2 {
		t.Errorf("plain match size = %d, want 2", got)
	}
}

func TestEvalEmptyCases(t *testing.T) {
	if !(Query{}).Eval(catalogSource()).IsEmpty() {
		t.Error("empty query returned nodes")
	}
	if !query1().Eval(tree.Empty()).IsEmpty() {
		t.Error("query on empty tree returned nodes")
	}
	// Root label mismatch.
	q := Query{Root: N("nomatch", cond.True())}
	if !q.Eval(catalogSource()).IsEmpty() {
		t.Error("mismatched root returned nodes")
	}
}

func TestEvalRootCondition(t *testing.T) {
	src := tree.Tree{Root: tree.NewID("r", "root", v(5))}
	hit := Query{Root: N("root", cond.EqInt(5))}
	if hit.Eval(src).IsEmpty() {
		t.Error("matching root condition rejected")
	}
	miss := Query{Root: N("root", cond.EqInt(6))}
	if !miss.Eval(src).IsEmpty() {
		t.Error("failing root condition accepted")
	}
}

func TestEvalPartialMatchExcluded(t *testing.T) {
	// A product matching only part of the pattern must not appear at all.
	src := tree.Tree{Root: tree.NewID("r", "catalog", rat.Zero,
		tree.NewID("p1", "product", rat.Zero,
			tree.NewID("n1", "name", v(1)),
			tree.NewID("pr1", "price", v(300))), // fails price < 200
		tree.NewID("p2", "product", rat.Zero,
			tree.NewID("n2", "name", v(2)),
			tree.NewID("pr2", "price", v(100))))}
	q := Query{Root: N("catalog", cond.True(),
		N("product", cond.True(),
			N("name", cond.True()),
			N("price", cond.LtInt(200))))}
	ids := q.Eval(src).IDs()
	if ids["p1"] || ids["n1"] {
		t.Error("partially matching product leaked into answer")
	}
	if !ids["p2"] || !ids["n2"] || !ids["pr2"] {
		t.Error("fully matching product missing")
	}
}

func TestMatches(t *testing.T) {
	if !query1().Matches(catalogSource()) {
		t.Error("query1 should match")
	}
	q := Query{Root: N("catalog", cond.True(), N("nothing", cond.True()))}
	if q.Matches(catalogSource()) {
		t.Error("impossible query matches")
	}
}

func TestParseAndString(t *testing.T) {
	src := `catalog
  product
    cat {= 1}
      subcat
    name
    price {< 200}
`
	q := MustParse(src)
	if q.Size() != 6 {
		t.Fatalf("parsed size = %d", q.Size())
	}
	// Round trip.
	again := MustParse(q.String())
	if q.String() != again.String() {
		t.Errorf("round trip mismatch:\n%q\nvs\n%q", q.String(), again.String())
	}
	// Same answers as the hand-built query1.
	a1 := query1().Eval(catalogSource())
	a2 := q.Eval(catalogSource())
	if !a1.Equal(a2) {
		t.Error("parsed query answers differ from built query")
	}
}

func TestParseBar(t *testing.T) {
	q := MustParse("root\n  a! {> 3}\n")
	child := q.Root.Children[0]
	if !child.Extract || child.Label != "a" || !child.Cond.Equal(cond.GtInt(3)) {
		t.Errorf("bar parse wrong: %+v", child)
	}
	if !strings.Contains(q.String(), "a! {> 3}") {
		t.Errorf("bar not rendered: %q", q.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",            // empty
		"  indented",  // first node indented
		"a\n    jump", // indentation jump
		"a\n b",       // odd indentation
		"a\n  b {<}",  // bad condition
		"a\n  b {< 1", // unterminated
		"a\n  !",      // missing label
		"a\n  b\n  b", // duplicate siblings
		"a\nb",        // two roots
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	q := query1()
	cp := q.Clone()
	cp.Root.Children[0].Children[0].Label = "changed"
	if q.Root.Children[0].Children[0].Label == "changed" {
		t.Error("clone shares nodes")
	}
}

func TestSubquery(t *testing.T) {
	q := query1()
	sub := Subquery(q.Root.Children[0]) // rooted at product
	if sub.Root.Label != "product" || sub.Size() != 5 {
		t.Errorf("Subquery wrong: %s", sub)
	}
}

func TestMultipleValuationsUnion(t *testing.T) {
	// Two children match the same pattern node: both are in the answer.
	src := tree.Tree{Root: tree.NewID("r", "root", rat.Zero,
		tree.NewID("a1", "a", v(1)),
		tree.NewID("a2", "a", v(2)),
		tree.NewID("a3", "a", v(30)))}
	q := Query{Root: N("root", cond.True(), N("a", cond.LtInt(10)))}
	ids := q.Eval(src).IDs()
	if !ids["a1"] || !ids["a2"] {
		t.Error("union of valuations missing matches")
	}
	if ids["a3"] {
		t.Error("non-matching node included")
	}
}

// randomQuery builds a random valid pattern over a small alphabet: up to
// three levels of distinct-label children, random conditions, and bars on
// some leaves.
func randomQuery(r *rand.Rand) Query {
	labels := []tree.Label{"a", "b", "c", "d"}
	conds := []func() cond.Cond{
		cond.True,
		func() cond.Cond { return cond.LtInt(r.Int63n(100)) },
		func() cond.Cond { return cond.EqInt(r.Int63n(100)).Or(cond.GtInt(r.Int63n(100))) },
	}
	var grow func(label tree.Label, depth int) *Node
	grow = func(label tree.Label, depth int) *Node {
		n := &Node{Label: label, Cond: conds[r.Intn(len(conds))]()}
		if depth < 3 {
			for _, i := range r.Perm(len(labels))[:r.Intn(3)] {
				n.Children = append(n.Children, grow(labels[i], depth+1))
			}
		}
		n.Extract = len(n.Children) == 0 && r.Intn(3) == 0
		return n
	}
	return Query{Root: grow("root", 0)}
}

// A keyed query's String is its stored key, which equals a fresh rendering;
// a Clone carries no key and renders the same text.
func TestKeyedStringMatchesRendering(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		q := randomQuery(r)
		if err := q.Validate(); err != nil {
			t.Fatalf("generator built an invalid query: %v", err)
		}
		want := q.String()
		k := q.Keyed()
		if k.key != want || k.String() != want {
			t.Fatalf("keyed %q, fresh rendering %q", k.String(), want)
		}
		if c := k.Clone(); c.key != "" || c.String() != want {
			t.Fatalf("clone of a keyed query: key %q, rendering %q", c.key, c.String())
		}
		p, err := Parse(want)
		if err != nil {
			t.Fatal(err)
		}
		if p.key != "" || p.Keyed().String() != want {
			t.Fatalf("parsed %q renders %q", want, p.String())
		}
	}
}
