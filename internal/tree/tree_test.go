package tree

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"incxml/internal/rat"
)

func v(n int64) rat.Rat { return rat.FromInt(n) }

// build constructs the paper's catalog answer to Query 1 (Figure 6, left):
// catalog with three product subtrees.
func catalogAnswer() Tree {
	prod := func(id string, price int64) *Node {
		return NewID(NodeID(id), "product", rat.Zero,
			NewID(NodeID(id+".name"), "name", rat.Zero),
			NewID(NodeID(id+".price"), "price", v(price)),
			NewID(NodeID(id+".cat"), "cat", rat.Zero,
				NewID(NodeID(id+".sub"), "subcat", rat.Zero)),
		)
	}
	return Tree{Root: NewID("cat0", "catalog", rat.Zero,
		prod("p1", 120),
		prod("p2", 199),
		prod("p3", 175),
	)}
}

func TestSizeDepthWalk(t *testing.T) {
	tr := catalogAnswer()
	if got := tr.Size(); got != 16 {
		t.Errorf("Size = %d, want 16", got)
	}
	if got := tr.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	if Empty().Size() != 0 || Empty().Depth() != 0 {
		t.Error("empty tree has nonzero size/depth")
	}
	var order []NodeID
	tr.Walk(func(n *Node) { order = append(order, n.ID) })
	if order[0] != "cat0" {
		t.Errorf("preorder starts at %s", order[0])
	}
}

func TestFindAndIDs(t *testing.T) {
	tr := catalogAnswer()
	if n := tr.Find("p2.price"); n == nil || !n.Value.Equal(v(199)) {
		t.Errorf("Find(p2.price) = %v", n)
	}
	if tr.Find("nope") != nil {
		t.Error("Find on missing id should be nil")
	}
	ids := tr.IDs()
	if len(ids) != 16 || !ids["p3.sub"] {
		t.Errorf("IDs wrong: %d entries", len(ids))
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := catalogAnswer()
	cp := tr.Clone()
	if !tr.Equal(cp) {
		t.Fatal("clone not equal")
	}
	cp.Find("p1.price").Value = v(999)
	if tr.Find("p1.price").Value.Equal(v(999)) {
		t.Error("mutating clone affected original")
	}
}

func TestEqualIgnoresChildOrder(t *testing.T) {
	a := Tree{Root: NewID("r", "root", rat.Zero,
		NewID("x", "a", v(1)), NewID("y", "b", v(2)))}
	b := Tree{Root: NewID("r", "root", rat.Zero,
		NewID("y", "b", v(2)), NewID("x", "a", v(1)))}
	if !a.Equal(b) {
		t.Error("equal trees with different child order reported unequal")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	base := Tree{Root: NewID("r", "root", rat.Zero, NewID("x", "a", v(1)))}
	diffs := []Tree{
		{Root: NewID("r2", "root", rat.Zero, NewID("x", "a", v(1)))},                       // root id
		{Root: NewID("r", "rootx", rat.Zero, NewID("x", "a", v(1)))},                       // label
		{Root: NewID("r", "root", v(5), NewID("x", "a", v(1)))},                            // value
		{Root: NewID("r", "root", rat.Zero, NewID("x", "a", v(2)))},                        // child value
		{Root: NewID("r", "root", rat.Zero)},                                               // missing child
		{Root: NewID("r", "root", rat.Zero, NewID("x", "a", v(1)), NewID("z", "a", v(1)))}, // extra child
	}
	for i, d := range diffs {
		if base.Equal(d) {
			t.Errorf("case %d: different trees reported equal", i)
		}
	}
	if !Empty().Equal(Empty()) {
		t.Error("empty trees unequal")
	}
	if base.Equal(Empty()) || Empty().Equal(base) {
		t.Error("empty equals nonempty")
	}
}

func TestIsomorphic(t *testing.T) {
	a := Tree{Root: NewID("r1", "root", rat.Zero,
		NewID("x1", "a", v(1)), NewID("y1", "a", v(2)))}
	b := Tree{Root: NewID("r2", "root", rat.Zero,
		NewID("y2", "a", v(2)), NewID("x2", "a", v(1)))}
	if !a.Isomorphic(b) {
		t.Error("isomorphic trees with different ids reported non-isomorphic")
	}
	c := Tree{Root: NewID("r3", "root", rat.Zero,
		NewID("x3", "a", v(1)), NewID("y3", "a", v(3)))}
	if a.Isomorphic(c) {
		t.Error("trees with different values reported isomorphic")
	}
	if a.Equal(b) {
		t.Error("Equal should be id-sensitive")
	}
}

func TestIsPrefixOf(t *testing.T) {
	full := catalogAnswer()
	// A prefix: catalog with just the Canon product and its name.
	pre := Tree{Root: NewID("cat0", "catalog", rat.Zero,
		NewID("p1", "product", rat.Zero,
			NewID("p1.name", "name", rat.Zero)))}
	n := map[NodeID]bool{"cat0": true, "p1": true, "p1.name": true}
	if !pre.IsPrefixOf(full, n) {
		t.Error("valid prefix rejected")
	}
	// Relative to N with an id mismatch: rename p1 -> q1, keep q1 in N.
	renamed := Tree{Root: NewID("cat0", "catalog", rat.Zero,
		NewID("q1", "product", rat.Zero,
			NewID("p1.name", "name", rat.Zero)))}
	nr := map[NodeID]bool{"cat0": true, "q1": true}
	if renamed.IsPrefixOf(full, nr) {
		t.Error("prefix with pinned missing id accepted")
	}
	// Same tree but with empty N: now q1 may map to p1 freely.
	if !renamed.IsPrefixOf(full, nil) {
		t.Error("prefix up to ids rejected with empty N")
	}
	// Not a prefix: wrong value.
	bad := Tree{Root: NewID("cat0", "catalog", rat.Zero,
		NewID("p1", "product", rat.Zero,
			NewID("p1.price", "price", v(121))))}
	if bad.IsPrefixOf(full, nil) {
		t.Error("wrong-value prefix accepted")
	}
	// Injectivity: two pattern children cannot map to one target child.
	twice := Tree{Root: NewID("cat0", "catalog", rat.Zero,
		NewID("a1", "product", rat.Zero, NewID("b1", "price", v(120))),
		NewID("a2", "product", rat.Zero, NewID("b2", "price", v(120))))}
	target := Tree{Root: NewID("cat0", "catalog", rat.Zero,
		NewID("p1", "product", rat.Zero, NewID("pp", "price", v(120))))}
	if twice.IsPrefixOf(target, nil) {
		t.Error("non-injective mapping accepted")
	}
	// The empty tree is a prefix of everything.
	if !Empty().IsPrefixOf(full, nil) {
		t.Error("empty tree not a prefix")
	}
	if full.IsPrefixOf(Empty(), nil) {
		t.Error("nonempty prefix of empty accepted")
	}
}

func TestPrefixOn(t *testing.T) {
	full := catalogAnswer()
	keep := map[NodeID]bool{"p1.price": true, "p2": true}
	pre := full.PrefixOn(keep)
	// Kept: cat0 (ancestor), p1 (ancestor), p1.price, p2.
	want := map[NodeID]bool{"cat0": true, "p1": true, "p1.price": true, "p2": true}
	got := pre.IDs()
	if len(got) != len(want) {
		t.Fatalf("PrefixOn kept %v, want %v", got, want)
	}
	for id := range want {
		if !got[id] {
			t.Errorf("missing %s", id)
		}
	}
	if !pre.IsPrefixOf(full, got) {
		t.Error("PrefixOn result is not a prefix of the original")
	}
	if !full.PrefixOn(nil).IsEmpty() {
		t.Error("PrefixOn(nil) should be empty")
	}
}

func TestCanonical(t *testing.T) {
	a := Tree{Root: NewID("r1", "root", rat.Zero,
		NewID("x1", "a", v(1)), NewID("y1", "b", v(2)))}
	b := Tree{Root: NewID("r2", "root", rat.Zero,
		NewID("y2", "b", v(2)), NewID("x2", "a", v(1)))}
	if a.Canonical() != b.Canonical() {
		t.Error("isomorphic trees have different canonical forms")
	}
	if a.CanonicalWithIDs() == b.CanonicalWithIDs() {
		t.Error("differently-identified trees share CanonicalWithIDs")
	}
	if Empty().Canonical() != "<empty>" {
		t.Error("empty canonical form wrong")
	}
}

func TestValidate(t *testing.T) {
	if err := catalogAnswer().Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	dup := Tree{Root: NewID("r", "root", rat.Zero,
		NewID("x", "a", v(1)), NewID("x", "a", v(1)))}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate ids accepted")
	}
	if err := Empty().Validate(); err != nil {
		t.Errorf("empty tree rejected: %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	tr := catalogAnswer()
	s := tr.String()
	if !strings.Contains(s, "catalog") || !strings.Contains(s, "price=199") {
		t.Errorf("String output missing content:\n%s", s)
	}
	if Empty().String() != "<empty tree>" {
		t.Error("empty tree string wrong")
	}
}

func TestFreshIDUnique(t *testing.T) {
	seen := map[NodeID]bool{}
	for i := 0; i < 1000; i++ {
		id := FreshID("n")
		if seen[id] {
			t.Fatalf("duplicate fresh id %s", id)
		}
		seen[id] = true
	}
}

// genTree builds a small random tree from fuzz bytes.
func genTree(seeds []byte) Tree {
	if len(seeds) == 0 {
		return Empty()
	}
	pos := 0
	next := func() int {
		if pos >= len(seeds) {
			return 0
		}
		b := int(seeds[pos])
		pos++
		return b
	}
	labels := []Label{"a", "b", "c"}
	var rec func(depth int) *Node
	rec = func(depth int) *Node {
		b := next()
		n := New(labels[b%len(labels)], v(int64(b%4)))
		if depth < 3 {
			for i := 0; i < b%3; i++ {
				n.Children = append(n.Children, rec(depth+1))
			}
		}
		return n
	}
	return Tree{Root: rec(0)}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seeds []byte) bool {
		tr := genTree(seeds)
		return tr.Equal(tr.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPrefixReflexive(t *testing.T) {
	f := func(seeds []byte) bool {
		tr := genTree(seeds)
		return tr.IsPrefixOf(tr, tr.IDs())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalIsomorphismAgreement(t *testing.T) {
	f := func(x, y []byte) bool {
		a, b := genTree(x), genTree(y)
		return a.Isomorphic(b) == (a.Canonical() == b.Canonical())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPrefixOnIsPrefix(t *testing.T) {
	f := func(seeds []byte, pick []byte) bool {
		tr := genTree(seeds)
		keep := map[NodeID]bool{}
		i := 0
		tr.Walk(func(n *Node) {
			if i < len(pick) && pick[i]%2 == 0 {
				keep[n.ID] = true
			}
			i++
		})
		pre := tr.PrefixOn(keep)
		return pre.IsPrefixOf(tr, pre.IDs())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualDuplicateSiblingIDs(t *testing.T) {
	// Degenerate duplicate-id siblings force the matching-based fallback.
	a := Tree{Root: NewID("r", "root", rat.Zero,
		NewID("x", "a", v(1)), NewID("x", "a", v(2)))}
	b := Tree{Root: NewID("r", "root", rat.Zero,
		NewID("x", "a", v(2)), NewID("x", "a", v(1)))}
	if !a.Equal(b) {
		t.Error("duplicate-id trees with permuted children reported unequal")
	}
	c := Tree{Root: NewID("r", "root", rat.Zero,
		NewID("x", "a", v(1)), NewID("x", "a", v(3)))}
	if a.Equal(c) {
		t.Error("different duplicate-id trees reported equal")
	}
}

// refCanonical is the original string-concatenation implementation, kept as
// the reference the pooled arena version must match byte for byte.
func refCanonical(t Tree, withIDs bool) string {
	var rec func(*Node) string
	rec = func(n *Node) string {
		kids := make([]string, len(n.Children))
		for i, c := range n.Children {
			kids[i] = rec(c)
		}
		sort.Strings(kids)
		prefix := ""
		if withIDs {
			prefix = string(n.ID) + ":"
		}
		return prefix + string(n.Label) + "=" + n.Value.String() + "(" + strings.Join(kids, ",") + ")"
	}
	if t.Root == nil {
		return "<empty>"
	}
	return rec(t.Root)
}

func TestQuickCanonicalMatchesReference(t *testing.T) {
	f := func(seeds []byte) bool {
		tr := genTree(seeds)
		return tr.Canonical() == refCanonical(tr, false) &&
			tr.CanonicalWithIDs() == refCanonical(tr, true)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func benchTree(fanout, depth int) Tree {
	var rec func(d int) *Node
	rec = func(d int) *Node {
		n := New(Label([]string{"a", "b", "c"}[d%3]), v(int64(d)))
		if d < depth {
			for i := 0; i < fanout; i++ {
				n.Children = append(n.Children, rec(d+1))
			}
		}
		return n
	}
	return Tree{Root: rec(0)}
}

func BenchmarkCanonical(b *testing.B) {
	tr := benchTree(3, 4) // 121 nodes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Canonical()
	}
}

func BenchmarkCanonicalWithIDs(b *testing.B) {
	tr := benchTree(3, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.CanonicalWithIDs()
	}
}

func BenchmarkFreshID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FreshID("node")
	}
}

// TestPrefixOnSharesWholeSubtrees: PrefixOn returns the input's own node
// wherever it keeps the whole subtree, copies only the nodes that lose a
// descendant, and leaves the input untouched.
func TestPrefixOnSharesWholeSubtrees(t *testing.T) {
	full := catalogAnswer()
	before := full.CanonicalWithIDs()
	if got := full.PrefixOn(full.IDs()); got.Root != full.Root {
		t.Error("keeping every node did not return the input root")
	}
	// p1 and all its descendants, plus p2's name: p1 is shared, p2 and the
	// root are copies.
	keep := map[NodeID]bool{"p2.name": true}
	Tree{Root: full.Root.Children[0]}.Walk(func(n *Node) { keep[n.ID] = true })
	pre := full.PrefixOn(keep)
	if pre.Root == full.Root || pre.Root.Children[0] != full.Root.Children[0] {
		t.Error("PrefixOn did not share exactly the whole kept subtree")
	}
	if p2 := pre.Root.Children[1]; p2 == full.Root.Children[1] || len(p2.Children) != 1 {
		t.Errorf("partly kept p2 = %v, want a copy with one child", p2)
	}
	if full.CanonicalWithIDs() != before {
		t.Error("PrefixOn mutated its input")
	}
}
