package itree

import (
	"testing"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// nodeFree wraps a conditional tree type as an incomplete tree with no data
// nodes, whose rep is the type's.
func nodeFree(ty *ctype.Type) *T { return &T{Nodes: map[tree.NodeID]NodeInfo{}, Type: ty} }

// simpleType builds: root r; r -> a* b+ | c?; a leaf with cond != 0;
// b leaf; c leaf with unsatisfiable cond.
func simpleType() *ctype.Type {
	ty := ctype.New()
	ty.Roots = []ctype.Symbol{"r"}
	ty.Sigma["r"] = ctype.LabelTarget("r")
	ty.Sigma["a"] = ctype.LabelTarget("a")
	ty.Sigma["b"] = ctype.LabelTarget("b")
	ty.Sigma["c"] = ctype.LabelTarget("c")
	ty.Mu["r"] = ctype.Disj{
		ctype.SAtom{{Sym: "a", Mult: dtd.Star}, {Sym: "b", Mult: dtd.Plus}},
		ctype.SAtom{{Sym: "c", Mult: dtd.Opt}},
	}
	ty.Cond["a"] = cond.NeInt(0)
	ty.Cond["c"] = cond.False()
	return ty
}

// TestMemberFromDTD: membership in a lifted plain tree type agrees with the
// dtd validator on label-only trees.
func TestMemberFromDTD(t *testing.T) {
	base := dtd.MustParse("root: catalog\ncatalog -> product+\nproduct -> name price\n")
	it := nodeFree(ctype.FromDTD(base))
	good := tree.Tree{Root: tree.New("catalog", rat.Zero,
		tree.New("product", rat.Zero,
			tree.New("name", rat.Zero), tree.New("price", rat.Zero)))}
	if it.Member(good) != base.Conforms(good) || !it.Member(good) {
		t.Error("membership disagrees with dtd validation on a valid tree")
	}
	bad := tree.Tree{Root: tree.New("catalog", rat.Zero)}
	if it.Member(bad) {
		t.Error("catalog with no product accepted")
	}
}

func TestMemberConditions(t *testing.T) {
	it := nodeFree(simpleType())
	ok := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(5)), tree.New("b", rat.Zero))}
	if !it.Member(ok) {
		t.Error("valid tree rejected")
	}
	badValue := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(0)), tree.New("b", rat.Zero))}
	if it.Member(badValue) {
		t.Error("a=0 violates cond(a) != 0 but was accepted")
	}
	noB := tree.Tree{Root: tree.New("r", rat.Zero, tree.New("a", v(1)))}
	if it.Member(noB) {
		t.Error("missing required b accepted")
	}
	manyB := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("b", rat.Zero), tree.New("b", rat.Zero), tree.New("b", rat.Zero))}
	if !it.Member(manyB) {
		t.Error("b+ with three b rejected")
	}
	wrongLabel := tree.Tree{Root: tree.New("x", rat.Zero)}
	if it.Member(wrongLabel) {
		t.Error("wrong root label accepted")
	}
	if it.Member(tree.Empty()) {
		t.Error("empty tree accepted")
	}

	// Trimming the type keeps membership. The disjunct c? loses its dead
	// item but remains, so a leaf root stays a member.
	trimmed := nodeFree(simpleType().TrimUseless())
	if !trimmed.Member(ok) {
		t.Error("trim changed membership")
	}
	leaf := tree.Tree{Root: tree.New("r", rat.Zero)}
	if !it.Member(leaf) || !trimmed.Member(leaf) {
		t.Error("leaf root should be a member before and after trim (c? dropped)")
	}
}

func TestMemberSpecialization(t *testing.T) {
	// Two specializations of label a with disjoint conditions and different
	// allowed children: cheap a (<100) must be a leaf; expensive a (>=100)
	// must have one b child.
	ty := ctype.New()
	ty.Roots = []ctype.Symbol{"r"}
	ty.Sigma["r"] = ctype.LabelTarget("r")
	ty.Sigma["a1"] = ctype.LabelTarget("a")
	ty.Sigma["a2"] = ctype.LabelTarget("a")
	ty.Sigma["b"] = ctype.LabelTarget("b")
	ty.Mu["r"] = ctype.Disj{ctype.SAtom{{Sym: "a1", Mult: dtd.Star}, {Sym: "a2", Mult: dtd.Star}}}
	ty.Cond["a1"] = cond.LtInt(100)
	ty.Cond["a2"] = cond.GeInt(100)
	ty.Mu["a2"] = ctype.Disj{ctype.SAtom{{Sym: "b", Mult: dtd.One}}}
	it := nodeFree(ty)
	cheapLeaf := tree.Tree{Root: tree.New("r", rat.Zero, tree.New("a", v(50)))}
	if !it.Member(cheapLeaf) {
		t.Error("cheap leaf a rejected")
	}
	cheapWithChild := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(50), tree.New("b", rat.Zero)))}
	if it.Member(cheapWithChild) {
		t.Error("cheap a with child accepted")
	}
	richWithChild := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(150), tree.New("b", rat.Zero)))}
	if !it.Member(richWithChild) {
		t.Error("expensive a with b rejected")
	}
	richLeaf := tree.Tree{Root: tree.New("r", rat.Zero, tree.New("a", v(150)))}
	if it.Member(richLeaf) {
		t.Error("expensive leaf a accepted")
	}
}
