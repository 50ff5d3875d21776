package itree

import (
	"strings"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

func v(n int64) rat.Rat { return rat.FromInt(n) }

// example22 builds the incomplete tree T of Example 2.2 (Figure 7, left):
// N = {r, n}; λ(r)=root, λ(n)=a, ν(r)=ν(n)=0; µ(r)=n a*, µ(a)=b*, µ(n)=b*,
// µ(b)=ε; cond(r)=cond(n)="=0", cond(a)="!=0", cond(b)=true.
func example22() *T {
	it := New()
	it.Nodes["r"] = NodeInfo{Label: "root", Value: v(0)}
	it.Nodes["n"] = NodeInfo{Label: "a", Value: v(0)}
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

// world builds a concrete member of rep(example22): root r with child n and
// extra a-children with b-grandchildren as specified.
func world(nBs int, extraAs ...int) tree.Tree {
	n := tree.NewID("n", "a", v(0))
	for i := 0; i < nBs; i++ {
		n.Children = append(n.Children, tree.New("b", v(0)))
	}
	root := tree.NewID("r", "root", v(0), n)
	for _, av := range extraAs {
		a := tree.New("a", v(int64(av)))
		root.Children = append(root.Children, a)
	}
	return tree.Tree{Root: root}
}

func TestExample22Member(t *testing.T) {
	it := example22()
	if err := it.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := it.Unambiguous(); err == nil {
		// µ uses a* for label symbol a: that part is fine; node symbols use 1.
		// Example 2.2 is in fact unambiguous.
	} else {
		t.Errorf("Example 2.2 should be unambiguous: %v", err)
	}
	// Member: r with child n.
	if !it.Member(world(0)) {
		t.Error("minimal world rejected")
	}
	if !it.Member(world(3, 1, 5)) {
		t.Error("world with extra a's rejected")
	}
	// Violations.
	noN := tree.Tree{Root: tree.NewID("r", "root", v(0))}
	if it.Member(noN) {
		t.Error("world without mandatory data node n accepted")
	}
	if it.Member(world(0, 0)) {
		t.Error("extra a with value 0 accepted (cond(a) is != 0)")
	}
	wrongRootValue := tree.Tree{Root: tree.NewID("r", "root", v(7),
		tree.NewID("n", "a", v(0)))}
	if it.Member(wrongRootValue) {
		t.Error("root with wrong pinned value accepted")
	}
	wrongRootID := tree.Tree{Root: tree.NewID("other", "root", v(0),
		tree.NewID("n", "a", v(0)))}
	if it.Member(wrongRootID) {
		t.Error("root with foreign id accepted")
	}
	// A node with id in N typed as a plain label is forbidden: here the extra
	// a-child reuses id n, so n would occur twice.
	dupN := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("n", "a", v(0)),
		tree.NewID("n", "a", v(1)))}
	if it.Member(dupN) {
		t.Error("data node occurring twice accepted")
	}
	if it.Member(tree.Empty()) {
		t.Error("empty tree accepted without MayBeEmpty")
	}
	// An unmarked tree is decided afresh: after a mutation, membership
	// reflects it.
	it.Type.Cond["n"] = cond.Eq(v(99))
	if it.Member(world(0)) {
		t.Error("mutated tree still reports membership")
	}
}

func TestExample22EmptyAndWitness(t *testing.T) {
	it := example22()
	if it.Empty() {
		t.Fatal("Example 2.2 rep should be nonempty")
	}
	w, ok := it.Witness()
	if !ok {
		t.Fatal("no witness")
	}
	if !it.Member(w) {
		t.Errorf("witness not a member:\n%s", w)
	}
	// Kill it: make cond(n) unsatisfiable — n is mandatory under r.
	it.Type.Cond["n"] = cond.False()
	if !it.Empty() {
		t.Error("rep with dead mandatory child should be empty")
	}
}

func TestEffectiveCond(t *testing.T) {
	it := example22()
	// Node symbol n: cond "=0" pinned to ν(n)=0 stays "=0".
	if got := it.EffectiveCond("n"); !got.Equal(cond.EqInt(0)) {
		t.Errorf("EffectiveCond(n) = %v", got)
	}
	// If cond(n) contradicts ν(n), effective is false.
	it.Type.Cond["n"] = cond.EqInt(5)
	if it.EffectiveCond("n").Satisfiable() {
		t.Error("contradictory node condition should be unsatisfiable")
	}
	// Label symbols keep their condition.
	if got := it.EffectiveCond("a"); !got.Equal(cond.NeInt(0)) {
		t.Errorf("EffectiveCond(a) = %v", got)
	}
}

func TestDataTree(t *testing.T) {
	it := example22()
	td := it.DataTree()
	if td.Size() != 2 {
		t.Fatalf("data tree size = %d, want 2:\n%s", td.Size(), td)
	}
	if td.Root.ID != "r" || len(td.Root.Children) != 1 || td.Root.Children[0].ID != "n" {
		t.Errorf("data tree structure wrong:\n%s", td)
	}
	// The data tree is a prefix of every member (reachable itrees).
	if !td.IsPrefixOf(world(2, 3), td.IDs()) {
		t.Error("data tree not a prefix of a member")
	}
	if !New().DataTree().IsEmpty() {
		t.Error("empty itree has nonempty data tree")
	}
}

func TestTrimUseless(t *testing.T) {
	it := example22()
	// Add a dead symbol z and a data node referenced only by it.
	it.Nodes["zombie"] = NodeInfo{Label: "z", Value: v(0)}
	it.Type.Sigma["zsym"] = ctype.NodeTarget("zombie")
	it.Type.Cond["zsym"] = cond.False()
	trimmed := it.TrimUseless()
	if _, ok := trimmed.Type.Sigma["zsym"]; ok {
		t.Error("dead symbol survived trim")
	}
	if _, ok := trimmed.Nodes["zombie"]; ok {
		t.Error("unreferenced data node survived trim")
	}
	// rep unchanged.
	if eq, diff := EqualRepSets(it, trimmed, DefaultBounds()); !eq {
		t.Errorf("trim changed rep: %s", diff)
	}
}

func TestUnambiguousViolations(t *testing.T) {
	// Node item with multiplicity other than 1.
	it := example22()
	it.Type.Mu["r"] = ctype.Disj{ctype.SAtom{
		{Sym: "n", Mult: dtd.Star}, {Sym: "a", Mult: dtd.Star}}}
	if err := it.Unambiguous(); err == nil {
		t.Error("node item with * accepted as unambiguous")
	}
	// Label item with multiplicity other than *.
	it2 := example22()
	it2.Type.Mu["r"] = ctype.Disj{ctype.SAtom{
		{Sym: "n", Mult: dtd.One}, {Sym: "a", Mult: dtd.Plus}}}
	if err := it2.Unambiguous(); err == nil {
		t.Error("label item with + accepted as unambiguous")
	}
	// Overlapping conditions on two specializations of the same label.
	it3 := example22()
	it3.Type.Sigma["a2"] = ctype.LabelTarget("a")
	it3.Type.Cond["a2"] = cond.GtInt(-5) // overlaps != 0
	it3.Type.Mu["r"] = ctype.Disj{ctype.SAtom{
		{Sym: "n", Mult: dtd.One}, {Sym: "a", Mult: dtd.Star}, {Sym: "a2", Mult: dtd.Star}}}
	if err := it3.Unambiguous(); err == nil {
		t.Error("overlapping specializations accepted as unambiguous")
	}
	// Disjoint specializations of label a with a data node labeled a present:
	// unambiguous.
	it4 := example22()
	it4.Type.Sigma["a2"] = ctype.LabelTarget("a")
	it4.Type.Cond["a2"] = cond.EqInt(0)
	it4.Type.Mu["a2"] = ctype.Disj{ctype.SAtom{{Sym: "b", Mult: dtd.Star}}}
	it4.Type.Mu["r"] = ctype.Disj{ctype.SAtom{
		{Sym: "n", Mult: dtd.One}, {Sym: "a", Mult: dtd.Star}, {Sym: "a2", Mult: dtd.Star}}}
	if err := it4.Unambiguous(); err != nil {
		t.Errorf("valid multi-specialization rejected: %v", err)
	}
}

func TestValidateViolations(t *testing.T) {
	// Node symbol under a label symbol.
	it := New()
	it.Nodes["n"] = NodeInfo{Label: "a", Value: v(0)}
	it.Type.Roots = []ctype.Symbol{"r"}
	it.Type.Sigma["r"] = ctype.LabelTarget("root")
	it.Type.Sigma["nsym"] = ctype.NodeTarget("n")
	it.Type.Mu["r"] = ctype.Disj{ctype.SAtom{{Sym: "nsym", Mult: dtd.One}}}
	if err := it.Validate(); err == nil {
		t.Error("node symbol under label symbol accepted")
	}
	// Unknown data node.
	it2 := New()
	it2.Type.Roots = []ctype.Symbol{"r"}
	it2.Type.Sigma["r"] = ctype.NodeTarget("ghost")
	if err := it2.Validate(); err == nil {
		t.Error("root targeting unknown node accepted")
	}
	// Two parents for one data node.
	it3 := example22()
	it3.Type.Sigma["r2"] = ctype.NodeTarget("r")
	it3.Type.Mu["r2"] = ctype.Disj{ctype.SAtom{{Sym: "n", Mult: dtd.One}}}
	it3.Nodes["r2x"] = NodeInfo{Label: "root", Value: v(0)}
	it3.Type.Sigma["r2xsym"] = ctype.NodeTarget("r2x")
	it3.Type.Mu["r2xsym"] = ctype.Disj{ctype.SAtom{{Sym: "n", Mult: dtd.One}}}
	if err := it3.Validate(); err == nil {
		t.Error("data node with two distinct parents accepted")
	}
}

func TestEnumerateExample22(t *testing.T) {
	it := example22()
	b := Bounds{Values: []rat.Rat{v(0), v(1)}, MaxRepeat: 1, MaxDepth: 4, MaxTrees: 1000}
	got := it.Enumerate(b)
	if len(got) == 0 {
		t.Fatal("no trees enumerated")
	}
	for _, tr := range got {
		if !it.Member(tr) {
			t.Errorf("enumerated tree not a member:\n%s", tr)
		}
	}
	// With values {0,1} and MaxRepeat 1: n has 3 variants (no b, b=0, b=1);
	// the optional extra a (value pinned to 1 by cond != 0) has 3 variants
	// likewise, so r has 1+3 = 4 child arrangements: 3 × 4 = 12 trees.
	if len(got) != 12 {
		t.Errorf("enumerated %d trees, want 12", len(got))
	}
}

func TestEnumerateMembershipAgree(t *testing.T) {
	// Every enumerated tree is a member; spot-check that non-members are not
	// enumerated by counting against a hand enumeration.
	it := example22()
	b := Bounds{Values: []rat.Rat{v(0)}, MaxRepeat: 1, MaxDepth: 4, MaxTrees: 100}
	got := it.Enumerate(b)
	// Only value 0 available: extra a's (cond != 0) are impossible;
	// n may have 0 or 1 b-child: exactly 2 trees.
	if len(got) != 2 {
		t.Errorf("enumerated %d trees, want 2", len(got))
	}
}

func TestMayBeEmpty(t *testing.T) {
	it := example22()
	it.MayBeEmpty = true
	if !it.Member(tree.Empty()) {
		t.Error("empty tree rejected despite MayBeEmpty")
	}
	if it.Empty() {
		t.Error("rep containing the empty tree reported as empty set")
	}
	found := false
	for _, tr := range it.Enumerate(DefaultBounds()) {
		if tr.IsEmpty() {
			found = true
		}
	}
	if !found {
		t.Error("empty tree not enumerated")
	}
	// A dead type with MayBeEmpty: rep = {empty tree}.
	dead := New()
	dead.MayBeEmpty = true
	if dead.Empty() {
		t.Error("rep = {empty} reported empty")
	}
	if dead.IsPossiblePrefix(world(0)) {
		t.Error("nonempty tree possible prefix of {empty}")
	}
	if !dead.IsPossiblePrefix(tree.Empty()) {
		t.Error("empty tree not possible prefix of {empty}")
	}
}

func TestPossiblePrefixExample22(t *testing.T) {
	it := example22()
	// The data tree (r with child n) is a possible (indeed certain) prefix.
	td := it.DataTree()
	if !it.IsPossiblePrefix(td) {
		t.Error("data tree not possible prefix")
	}
	// r with child n and one b below n: possible.
	withB := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("n", "a", v(0), tree.New("b", v(3))))}
	if !it.IsPossiblePrefix(withB) {
		t.Error("n with b child not possible prefix")
	}
	// r with an extra a-child of value 2: possible.
	withA := tree.Tree{Root: tree.NewID("r", "root", v(0), tree.New("a", v(2)))}
	if !it.IsPossiblePrefix(withA) {
		t.Error("extra a child not possible prefix")
	}
	// An a-child with value 0 violates cond(a) but can map onto the data
	// node n (λ(n)=a, ν(n)=0): still a possible prefix.
	viaN := tree.Tree{Root: tree.NewID("r", "root", v(0), tree.New("a", v(0)))}
	if !it.IsPossiblePrefix(viaN) {
		t.Error("a=0 child should map onto data node n")
	}
	// Two a=0 children: only one can map to n (it occurs once), the other
	// has no admissible symbol — impossible.
	badA := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.New("a", v(0)), tree.New("a", v(0)))}
	if it.IsPossiblePrefix(badA) {
		t.Error("two a=0 children accepted as possible prefix")
	}
	// Wrong pinned value at r: impossible.
	badR := tree.Tree{Root: tree.NewID("r", "root", v(9))}
	if it.IsPossiblePrefix(badR) {
		t.Error("r=9 accepted as possible prefix")
	}
	// Empty prefix always possible when rep nonempty.
	if !it.IsPossiblePrefix(tree.Empty()) {
		t.Error("empty tree not possible prefix")
	}
}

func TestCertainPrefixExample22(t *testing.T) {
	it := example22()
	// r alone: certain (every member has root r with value 0).
	rOnly := tree.Tree{Root: tree.NewID("r", "root", v(0))}
	if !it.IsCertainPrefix(rOnly) {
		t.Error("pinned root not certain prefix")
	}
	// r with child n: certain (n is a mandatory data node).
	if !it.IsCertainPrefix(it.DataTree()) {
		t.Error("data tree not certain prefix")
	}
	// r with an extra a-child: possible but not certain.
	withA := tree.Tree{Root: tree.NewID("r", "root", v(0), tree.New("a", v(2)))}
	if it.IsCertainPrefix(withA) {
		t.Error("optional a child reported certain")
	}
	// b under n: possible but not certain (b* may be empty).
	withB := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("n", "a", v(0), tree.New("b", v(3))))}
	if it.IsCertainPrefix(withB) {
		t.Error("optional b child reported certain")
	}
	// Changing n's item to + on b makes ... b still has free value; a b child
	// with a *specific* value is not certain, but "some b" is not expressible
	// as a prefix with a pinned value unless cond(b) is a point. Pin cond(b).
	it2 := example22()
	it2.Type.Mu["n"] = ctype.Disj{ctype.SAtom{{Sym: "b", Mult: dtd.Plus}}}
	it2.Type.Cond["b"] = cond.EqInt(7)
	withB7 := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("n", "a", v(0), tree.New("b", v(7))))}
	if !it2.IsCertainPrefix(withB7) {
		t.Error("mandatory pinned b child not certain")
	}
	// Two mandatory pinned b children: only one instance guaranteed by +.
	withTwoB := tree.Tree{Root: tree.NewID("r", "root", v(0),
		tree.NewID("n", "a", v(0), tree.New("b", v(7)), tree.New("b", v(7))))}
	if it2.IsCertainPrefix(withTwoB) {
		t.Error("two children guaranteed by a single + item")
	}
	if !it2.IsPossiblePrefix(withTwoB) {
		t.Error("two b children should be possible")
	}
	// Empty rep: nothing is certain.
	dead := example22()
	dead.Type.Cond["n"] = cond.False()
	if dead.IsCertainPrefix(tree.Empty()) {
		t.Error("empty rep has certain prefixes")
	}
}

// TestPrefixAgainstOracle cross-validates the Theorem 2.8 algorithms against
// the enumeration oracle on Example 2.2 with various candidate prefixes.
func TestPrefixAgainstOracle(t *testing.T) {
	it := example22()
	bounds := Bounds{Values: []rat.Rat{v(0), v(1), v(2)}, MaxRepeat: 2, MaxDepth: 4, MaxTrees: 5000}
	worlds := it.Enumerate(bounds)
	if len(worlds) == 0 {
		t.Fatal("no worlds")
	}
	nset := map[tree.NodeID]bool{"r": true, "n": true}
	candidates := []tree.Tree{
		tree.Empty(),
		{Root: tree.NewID("r", "root", v(0))},
		it.DataTree(),
		{Root: tree.NewID("r", "root", v(0), tree.New("a", v(1)))},
		{Root: tree.NewID("r", "root", v(0), tree.New("a", v(0)))},
		{Root: tree.NewID("r", "root", v(0),
			tree.NewID("n", "a", v(0), tree.New("b", v(2))))},
		{Root: tree.NewID("r", "root", v(1))},
		{Root: tree.New("x", v(0))},
		{Root: tree.NewID("r", "root", v(0), tree.New("a", v(1)), tree.New("a", v(2)))},
	}
	for i, cand := range candidates {
		oraclePoss, oracleCert := false, true
		for _, w := range worlds {
			if cand.IsPrefixOf(w, nset) {
				oraclePoss = true
			} else {
				oracleCert = false
			}
		}
		// The oracle ranges over bounded worlds only; for "certain" this can
		// overapproximate, so only check: algorithm-certain implies
		// oracle-certain, and possible matches exactly (bounded worlds
		// include all shapes relevant to these candidates).
		if got := it.IsPossiblePrefix(cand); got != oraclePoss {
			t.Errorf("candidate %d: possible = %v, oracle = %v\n%s", i, got, oraclePoss, cand)
		}
		if got := it.IsCertainPrefix(cand); got && !oracleCert {
			t.Errorf("candidate %d: certain = true but oracle found counterexample\n%s", i, cand)
		}
	}
}

func TestSizeAndString(t *testing.T) {
	it := example22()
	if it.Size() == 0 {
		t.Error("size should be positive")
	}
	s := it.String()
	for _, want := range []string{"data nodes:", "r: root = 0", "n: a = 0", "type:"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestEqualRepSets(t *testing.T) {
	a := example22()
	b := example22()
	if eq, diff := EqualRepSets(a, b, DefaultBounds()); !eq {
		t.Errorf("identical itrees differ: %s", diff)
	}
	// Restricting cond(a) changes rep.
	b.Type.Cond["a"] = cond.GtInt(0)
	bounds := Bounds{Values: []rat.Rat{v(-1), v(0), v(1)}, MaxRepeat: 1, MaxDepth: 4, MaxTrees: 2000}
	if eq, _ := EqualRepSets(a, b, bounds); eq {
		t.Error("different itrees reported rep-equal")
	}
}
