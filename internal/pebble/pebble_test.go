package pebble

import (
	"testing"

	"incxml/internal/rat"
	"incxml/internal/tree"
)

func unranked() tree.Tree {
	return tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", rat.FromInt(1)),
		tree.New("b", rat.FromInt(2),
			tree.New("c", rat.FromInt(3))),
		tree.New("a", rat.FromInt(4)))}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	u := unranked()
	b := Encode(u)
	if b.Size() != u.Size() {
		t.Fatalf("binary size %d != unranked size %d", b.Size(), u.Size())
	}
	back := Decode(b)
	if !u.Isomorphic(mapZeroValues(back, u)) {
		// Values are dropped by Encode; compare shapes and labels only.
	}
	if u.Canonical() == back.Canonical() {
		// Values differ (all zero after decode); compare label structure via
		// a stripped canonical form.
	}
	if stripValues(u).Canonical() != stripValues(back).Canonical() {
		t.Errorf("round trip changed label structure:\n%s\nvs\n%s", u, back)
	}
	if Encode(tree.Empty()) != nil {
		t.Error("empty tree should encode to nil")
	}
	if !Decode(nil).IsEmpty() {
		t.Error("nil should decode to empty tree")
	}
}

// stripValues zeroes all values for shape comparison.
func stripValues(t tree.Tree) tree.Tree {
	out := t.Clone()
	out.Walk(func(n *tree.Node) { n.Value = rat.Zero })
	return out
}

// mapZeroValues is a no-op helper retained for documentation purposes.
func mapZeroValues(t tree.Tree, _ tree.Tree) tree.Tree { return t }

// hasLeafAutomaton accepts binary trees containing a node labeled target,
// via a 1-pebble depth-first walk.
func hasLeafAutomaton(target tree.Label) *Automaton {
	a := NewAutomaton(1, "seek", "found")
	any := func(move MoveKind, next State) Transition {
		return Transition{Guard: Guard{State: "seek"}, Move: move, Next: next}
	}
	a.Add(Transition{Guard: Guard{State: "seek", Label: target}, Move: Stay, Next: "found"})
	a.Add(any(DownLeft, "seek"))
	a.Add(any(DownRight, "seek"))
	a.Add(any(Up, "seek"))
	return a
}

func TestAutomatonAccepts(t *testing.T) {
	b := Encode(unranked())
	if !hasLeafAutomaton("c").Accepts(b) {
		t.Error("automaton missed existing label c")
	}
	if hasLeafAutomaton("z").Accepts(b) {
		t.Error("automaton found nonexistent label z")
	}
	if !hasLeafAutomaton("r").Accepts(b) {
		t.Error("automaton missed the root label")
	}
	// Nil tree: accept iff start state accepting.
	if hasLeafAutomaton("c").Accepts(nil) {
		t.Error("nil tree accepted")
	}
}

// twoPebbleAutomaton accepts trees with at least two distinct nodes labeled
// target: pebble 1 parks on one occurrence, pebble 2 finds another not
// under pebble 1.
func twoDistinctAutomaton(target tree.Label) *Automaton {
	a := NewAutomaton(2, "seek1", "found")
	// Phase 1: pebble 1 wanders to a target node.
	for _, m := range []MoveKind{DownLeft, DownRight, Up} {
		a.Add(Transition{Guard: Guard{State: "seek1"}, Move: m, Next: "seek1"})
	}
	a.Add(Transition{Guard: Guard{State: "seek1", Label: target}, Move: PlaceNew, Next: "seek2"})
	// Phase 2: pebble 2 wanders to a target node not carrying pebble 1.
	for _, m := range []MoveKind{DownLeft, DownRight, Up} {
		a.Add(Transition{Guard: Guard{State: "seek2"}, Move: m, Next: "seek2"})
	}
	a.Add(Transition{
		Guard: Guard{State: "seek2", Label: target, Here: map[int]bool{1: false}},
		Move:  Stay, Next: "found"})
	return a
}

func TestTwoPebbleAutomaton(t *testing.T) {
	b := Encode(unranked())
	if !twoDistinctAutomaton("a").Accepts(b) {
		t.Error("two a-nodes exist but not found")
	}
	if twoDistinctAutomaton("c").Accepts(b) {
		t.Error("only one c-node but two reported")
	}
	if twoDistinctAutomaton("z").Accepts(b) {
		t.Error("no z-nodes but two reported")
	}
}

func TestPebbleBudgetEnforced(t *testing.T) {
	// A 1-pebble machine trying to place a second pebble gets stuck.
	a := NewAutomaton(1, "s", "done")
	a.Add(Transition{Guard: Guard{State: "s"}, Move: PlaceNew, Next: "done"})
	if a.Accepts(Encode(unranked())) {
		t.Error("pebble budget exceeded")
	}
	// With k=2 the same machine succeeds.
	a2 := NewAutomaton(2, "s", "done")
	a2.Add(Transition{Guard: Guard{State: "s"}, Move: PlaceNew, Next: "done"})
	if !a2.Accepts(Encode(unranked())) {
		t.Error("k=2 place rejected")
	}
}

func TestIntersectionList(t *testing.T) {
	il := &IntersectionList{}
	il.Add(hasLeafAutomaton("a"))
	il.Add(hasLeafAutomaton("c"))
	b := Encode(unranked())
	if !il.Member(b) {
		t.Error("tree with both labels rejected")
	}
	il.Add(hasLeafAutomaton("z"))
	if il.Member(b) {
		t.Error("tree without z accepted")
	}
	if il.Size() == 0 {
		t.Error("size should be positive")
	}

	// E12 shape gate (Theorem 4.2): the representation grows linearly in
	// the constraint sequence, as in the E12 benchmark's 1, 4, 16 sweep.
	lin := &IntersectionList{}
	lin.Add(hasLeafAutomaton("price"))
	one := lin.Size()
	for k := 2; k <= 16; k++ {
		lin.Add(hasLeafAutomaton("price"))
		if lin.Size() != k*one {
			t.Fatalf("%d constraints: size %d, want %d×%d", k, lin.Size(), k, one)
		}
	}
}

func TestBoundedEmpty(t *testing.T) {
	il := &IntersectionList{}
	il.Add(hasLeafAutomaton("a"))
	il.Add(hasLeafAutomaton("b"))
	witness, empty := il.BoundedEmpty([]tree.Label{"a", "b"}, 3)
	if empty {
		t.Fatal("nonempty intersection reported empty")
	}
	if !il.Member(witness) {
		t.Error("witness not a member")
	}
	// Contradictory: requires both an all-a certificate and label b... use
	// an automaton accepting only single-node trees labeled a, plus one
	// requiring label b.
	single := NewAutomaton(1, "s", "ok")
	single.Add(Transition{Guard: Guard{State: "s", Label: "a"}, Move: Stay, Next: "chk"})
	// From chk, accept only if no children: moving down must be impossible;
	// encode by accepting directly in chk only when... simplest: accept any
	// a-rooted tree and add b-finder with alphabet {a} so b never occurs.
	il2 := &IntersectionList{}
	il2.Add(hasLeafAutomaton("b"))
	if _, empty := il2.BoundedEmpty([]tree.Label{"a"}, 4); !empty {
		t.Error("b-requiring list over {a} alphabet not empty")
	}
}

func TestRelabelByValue(t *testing.T) {
	u := unranked()
	relabeled := RelabelByValue(u, []func(*tree.Node) bool{
		func(n *tree.Node) bool { return n.Value.Less(rat.FromInt(2)) },
		func(n *tree.Node) bool { return !n.Value.Less(rat.FromInt(2)) },
	})
	labels := map[tree.Label]bool{}
	relabeled.Walk(func(n *tree.Node) { labels[n.Label] = true })
	if !labels["a[0]"] || !labels["a[1]"] {
		t.Errorf("value classes not folded into labels: %v", labels)
	}
}

// identityTransducer copies the input tree.
func identityTransducer() *Transducer {
	td := NewTransducer(1, "copy")
	// At any node: binary-output its label, left branch descends left,
	// right branch descends right; a branch whose direction is absent
	// reaches a dead state and emits nothing.
	td.AddOutput(Output{
		Guard: Guard{State: "copy"}, Kind: Binary,
		OutLabel: "", LeftState: "goLeft", RightState: "goRight"})
	td.AddMove(Transition{Guard: Guard{State: "goLeft"}, Move: DownLeft, Next: "copy"})
	td.AddMove(Transition{Guard: Guard{State: "goRight"}, Move: DownRight, Next: "copy"})
	return td
}

func TestTransducerCopy(t *testing.T) {
	// The generic identity transducer cannot emit per-node labels with a
	// wildcard OutLabel; build per-label outputs instead.
	in := Encode(unranked())
	td := NewTransducer(1, "copy")
	for _, l := range in.Labels() {
		td.AddOutput(Output{
			Guard: Guard{State: "copy", Label: l}, Kind: Binary,
			OutLabel: l, LeftState: "goLeft", RightState: "goRight"})
	}
	td.AddMove(Transition{Guard: Guard{State: "goLeft"}, Move: DownLeft, Next: "copy"})
	td.AddMove(Transition{Guard: Guard{State: "goRight"}, Move: DownRight, Next: "copy"})
	out, err := td.Run(in, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != in.String() {
		t.Errorf("copy differs:\nin:  %s\nout: %s", in, out)
	}
}

func TestTransducerRelabel(t *testing.T) {
	// Swap labels a <-> b.
	in := Encode(unranked())
	td := NewTransducer(1, "copy")
	swap := map[tree.Label]tree.Label{"a": "b", "b": "a", "r": "r", "c": "c"}
	for from, to := range swap {
		td.AddOutput(Output{
			Guard: Guard{State: "copy", Label: from}, Kind: Binary,
			OutLabel: to, LeftState: "goLeft", RightState: "goRight"})
	}
	td.AddMove(Transition{Guard: Guard{State: "goLeft"}, Move: DownLeft, Next: "copy"})
	td.AddMove(Transition{Guard: Guard{State: "goRight"}, Move: DownRight, Next: "copy"})
	out, err := td.Run(in, 10000)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[tree.Label]int{}
	var count func(b *BNode)
	count = func(b *BNode) {
		if b == nil {
			return
		}
		labels[b.Label]++
		count(b.Left)
		count(b.Right)
	}
	count(out)
	if labels["a"] != 1 || labels["b"] != 2 {
		t.Errorf("swapped labels wrong: %v", labels)
	}
}

func TestTransducerDivergence(t *testing.T) {
	td := NewTransducer(1, "loop")
	td.AddMove(Transition{Guard: Guard{State: "loop"}, Move: Stay, Next: "loop"})
	if _, err := td.Run(Encode(unranked()), 100); err == nil {
		t.Error("divergent transducer not detected")
	}
}

func TestTransducerNilInput(t *testing.T) {
	td := identityTransducer()
	out, err := td.Run(nil, 100)
	if err != nil || out != nil {
		t.Errorf("nil input: out=%v err=%v", out, err)
	}
}
