package ctype

import (
	"strings"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/dtd"
)

// simpleType builds: root r; r -> a* b+ | c?; a leaf with cond != 0;
// b leaf; c leaf with unsatisfiable cond.
func simpleType() *Type {
	t := New()
	t.Roots = []Symbol{"r"}
	t.Sigma["r"] = LabelTarget("r")
	t.Sigma["a"] = LabelTarget("a")
	t.Sigma["b"] = LabelTarget("b")
	t.Sigma["c"] = LabelTarget("c")
	t.Mu["r"] = Disj{
		SAtom{{Sym: "a", Mult: dtd.Star}, {Sym: "b", Mult: dtd.Plus}},
		SAtom{{Sym: "c", Mult: dtd.Opt}},
	}
	t.Cond["a"] = cond.NeInt(0)
	t.Cond["c"] = cond.False()
	return t
}

func TestFromDTD(t *testing.T) {
	base := dtd.MustParse("root: catalog\ncatalog -> product+\nproduct -> name price\n")
	ct := FromDTD(base)
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ct.Roots) != 1 || ct.Roots[0] != "catalog" {
		t.Fatalf("roots = %v", ct.Roots)
	}
	d := ct.DisjFor("product")
	if len(d) != 1 || len(d[0]) != 2 {
		t.Fatalf("product disj = %v", d)
	}
	if ct.Empty() {
		t.Error("catalog type should be nonempty")
	}
}

func TestProductiveAndEmpty(t *testing.T) {
	ty := simpleType()
	prod := ty.Productive()
	if !prod["r"] || !prod["a"] || !prod["b"] {
		t.Errorf("productive = %v", prod)
	}
	if prod["c"] {
		t.Error("c has unsatisfiable condition but is productive")
	}
	if ty.Empty() {
		t.Error("type should be nonempty")
	}
	// With b dead, the first disjunct is not viable, but the second (c?) still
	// admits a leaf root: the type stays nonempty.
	ty.Cond["b"] = cond.False()
	if ty.Empty() {
		t.Error("leaf-root escape should keep the type nonempty")
	}
	// Requiring dead symbols in every disjunct makes it empty.
	ty.Mu["r"] = Disj{SAtom{{Sym: "b", Mult: dtd.One}}, SAtom{{Sym: "c", Mult: dtd.Plus}}}
	if !ty.Empty() {
		t.Error("type with all disjuncts requiring dead symbols should be empty")
	}
}

func TestEmptyRecursive(t *testing.T) {
	// r -> r : no finite tree exists.
	ty := New()
	ty.Roots = []Symbol{"r"}
	ty.Sigma["r"] = LabelTarget("r")
	ty.Mu["r"] = Disj{SAtom{{Sym: "r", Mult: dtd.One}}}
	if !ty.Empty() {
		t.Error("infinitely recursive type should be empty")
	}
	// Adding a leaf escape makes it nonempty.
	ty.Mu["r"] = append(ty.Mu["r"], SAtom{})
	if ty.Empty() {
		t.Error("type with leaf escape should be nonempty")
	}
}

func TestUseful(t *testing.T) {
	ty := simpleType()
	useful := ty.Useful()
	if !useful["r"] || !useful["a"] || !useful["b"] {
		t.Errorf("useful = %v", useful)
	}
	if useful["c"] {
		t.Error("dead symbol c reported useful")
	}
	// A productive but unreachable symbol is not useful.
	ty.Sigma["z"] = LabelTarget("z")
	ty.Mu["z"] = Disj{SAtom{}}
	if ty.Useful()["z"] {
		t.Error("unreachable z reported useful")
	}
	// A symbol required by a dead disjunct only is not useful: d appears only
	// alongside required dead c2.
	ty.Sigma["c2"] = LabelTarget("c2")
	ty.Cond["c2"] = cond.False()
	ty.Sigma["d"] = LabelTarget("d")
	ty.Mu["d"] = Disj{SAtom{}}
	ty.Mu["r"] = append(ty.Mu["r"], SAtom{{Sym: "c2", Mult: dtd.One}, {Sym: "d", Mult: dtd.Star}})
	if ty.Useful()["d"] {
		t.Error("d reachable only via dead disjunct reported useful")
	}
}

func TestTrimUseless(t *testing.T) {
	ty := simpleType()
	trimmed := ty.TrimUseless()
	if _, ok := trimmed.Sigma["c"]; ok {
		t.Error("dead c survived trimming")
	}
	// The disjunct c? is not dropped: it becomes the empty atom, which
	// still admits a leaf root.
	if got := trimmed.DisjFor("r").String(); got != "a* b+ v eps" {
		t.Errorf("trimmed r -> %s, want a* b+ v eps", got)
	}
}

func TestValidateErrors(t *testing.T) {
	ty := New()
	ty.Roots = []Symbol{"r"}
	if err := ty.Validate(); err == nil {
		t.Error("missing sigma entry accepted")
	}
	ty.Sigma["r"] = LabelTarget("r")
	ty.Mu["r"] = Disj{SAtom{{Sym: "r", Mult: dtd.One}, {Sym: "r", Mult: dtd.Star}}}
	if err := ty.Validate(); err == nil {
		t.Error("duplicate symbol in atom accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	ty := simpleType()
	cp := ty.Clone()
	cp.Cond["a"] = cond.True()
	cp.Mu["r"] = Disj{}
	if ty.CondFor("a").IsTrue() {
		t.Error("clone mutation leaked into original cond")
	}
	if len(ty.DisjFor("r")) != 2 {
		t.Error("clone mutation leaked into original mu")
	}
}

func TestRename(t *testing.T) {
	ty := simpleType()
	rn := ty.Rename(func(s Symbol) Symbol { return "x_" + s })
	if err := rn.Validate(); err != nil {
		t.Fatal(err)
	}
	if rn.Roots[0] != "x_r" {
		t.Errorf("root = %v", rn.Roots)
	}
	// Structure unchanged up to the renaming.
	if got := rn.DisjFor("x_r").String(); got != "x_a* x_b+ v x_c?" {
		t.Errorf("x_r -> %s", got)
	}
	if !rn.CondFor("x_a").Equal(ty.CondFor("a")) || rn.TargetFor("x_a") != ty.TargetFor("a") {
		t.Error("rename changed the condition or target of a")
	}
}

func TestStringRendering(t *testing.T) {
	ty := simpleType()
	s := ty.String()
	for _, want := range []string{"root: r", "r -> a* b+ v c?", "cond(a) = != 0", "cond(c) = false"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}
