package refine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// TestQuickRefineCharacterization is the central correctness property of
// Algorithm Refine, checked pointwise on random instances:
//
//	w ∈ rep(T_k)  ⇔  τ(w) ∧ q_i(w) = A_i for all i ≤ k
//
// where T_k is the reachable incomplete tree after observing the pairs
// (q_i, A_i) obtained by evaluating random linear queries on a hidden
// random document, and w ranges over random candidate worlds (the hidden
// document, perturbations of it, and unrelated documents).
func TestQuickRefineCharacterization(t *testing.T) {
	ty := workload.CatalogType()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc, err := workload.RandomTree(ty, seed, 2, 50)
		if err != nil {
			t.Fatal(err)
		}
		var qs []query.Query
		var answers []tree.Tree
		r := NewRefiner(ty.Alphabet(), ty)
		for k := 0; k < 4; k++ {
			q := workload.RandomLinearQuery(ty, seed*10+int64(k), 3, 50)
			a, err := r.ObserveOn(doc, q)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
			answers = append(answers, a)
		}
		know := r.Reachable()

		oracle := func(w tree.Tree) bool {
			if !ty.Conforms(w) {
				return false
			}
			for i, q := range qs {
				if !q.Eval(w).Equal(answers[i]) {
					return false
				}
			}
			return true
		}

		candidates := []tree.Tree{doc}
		// Perturbations of the hidden document: value tweaks, node
		// removals, extra subtrees.
		for p := 0; p < 20; p++ {
			w := doc.Clone()
			switch p % 3 {
			case 0: // tweak a random node's value
				nodes := collect(w)
				n := nodes[rng.Intn(len(nodes))]
				n.Value = n.Value.Add(rat.FromInt(int64(rng.Intn(5)) + 1))
			case 1: // drop a random product if any
				if len(w.Root.Children) > 1 {
					i := rng.Intn(len(w.Root.Children))
					w.Root.Children = append(w.Root.Children[:i], w.Root.Children[i+1:]...)
				}
			case 2: // add a random extra product
				extra, err := workload.RandomTree(ty, seed*100+int64(p), 2, 50)
				if err == nil && len(extra.Root.Children) > 0 {
					w.Root.Children = append(w.Root.Children, extra.Root.Children[0])
				}
			}
			candidates = append(candidates, w)
		}
		// Unrelated random documents.
		for p := 0; p < 10; p++ {
			w, err := workload.RandomTree(ty, seed*1000+int64(p), 2, 50)
			if err != nil {
				t.Fatal(err)
			}
			candidates = append(candidates, w)
		}
		for ci, w := range candidates {
			if w.Validate() != nil {
				continue
			}
			want := oracle(w)
			got := know.Member(w)
			if got != want {
				t.Fatalf("seed %d candidate %d: Member=%v oracle=%v\nworld:\n%s", seed, ci, got, want, w)
			}
		}
	}
}

func collect(w tree.Tree) []*tree.Node {
	var out []*tree.Node
	w.Walk(func(n *tree.Node) { out = append(out, n) })
	return out
}

// TestQuickIntersectSound checks rep(A∩B) ⊆ rep(A) and ⊇ nothing outside,
// pointwise on random pairs built from different query sets over the same
// document.
func TestQuickIntersectSound(t *testing.T) {
	ty := workload.CatalogType()
	for seed := int64(0); seed < 6; seed++ {
		doc, err := workload.RandomTree(ty, seed+50, 2, 30)
		if err != nil {
			t.Fatal(err)
		}
		qa := workload.RandomLinearQuery(ty, seed+1, 3, 30)
		qb := workload.RandomLinearQuery(ty, seed+2, 3, 30)
		ta := MustFromQueryAnswer(qa, qa.Eval(doc), workload.CatalogSigma)
		tb := MustFromQueryAnswer(qb, qb.Eval(doc), workload.CatalogSigma)
		both, err := Intersect(ta, tb)
		if err != nil {
			t.Fatal(err)
		}
		candidates := []tree.Tree{doc}
		for p := int64(0); p < 8; p++ {
			w, err := workload.RandomTree(ty, seed*7+p, 2, 30)
			if err != nil {
				t.Fatal(err)
			}
			candidates = append(candidates, w)
		}
		for ci, w := range candidates {
			want := ta.Member(w) && tb.Member(w)
			if got := both.Member(w); got != want {
				t.Fatalf("seed %d candidate %d: intersection member=%v, factors=%v", seed, ci, got, want)
			}
		}
		if !both.Member(doc) {
			t.Fatalf("seed %d: hidden document excluded", seed)
		}
	}
}

// TestCompactIdempotent: Compact(Compact(T)) has the same size and rep as
// Compact(T). Every Compact result is also really trimmed: it is marked, so
// TrimUseless returns it as is, a real trim of its (unmarked) Clone gives
// the same content, and verdicts stored on it do not follow it into the
// Clone.
func TestCompactIdempotent(t *testing.T) {
	once := Compact(rawBlowupChain(t, 3))
	twice := Compact(once)
	if twice.Size() != once.Size() {
		t.Errorf("Compact not idempotent in size: %d -> %d", once.Size(), twice.Size())
	}
	if eq, diff := itree.EqualRepSets(once, twice, itree.DefaultBounds()); !eq {
		t.Errorf("Compact changed rep on second application: %s", diff)
	}

	corpus := map[string]*itree.T{"blowup": once, "blowup twice": twice}
	for seed := int64(0); seed < 6; seed++ {
		ty := workload.RandomType(seed, 4)
		doc, err := workload.RandomTree(ty, seed+5, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRefiner(ty.Alphabet(), ty)
		for k := int64(0); k < 3; k++ {
			if _, err := r.ObserveOn(doc, workload.RandomLinearQuery(ty, seed*10+k, 3, 6)); err != nil {
				t.Fatal(err)
			}
			corpus[fmt.Sprintf("random %d step %d tree", seed, k)] = r.Tree()
			corpus[fmt.Sprintf("random %d step %d reachable", seed, k)] = r.Reachable()
		}
	}
	cat := NewRefiner(workload.CatalogSigma, workload.CatalogType())
	corpus["catalog pristine"] = cat.Reachable()
	for i, q := range []query.Query{workload.Query1(200), workload.Query2()} {
		if _, err := cat.ObserveOn(workload.PaperCatalog(), q); err != nil {
			t.Fatal(err)
		}
		corpus[fmt.Sprintf("catalog step %d", i)] = cat.Reachable()
	}
	for name, c := range corpus {
		if c.TrimUseless() != c {
			t.Errorf("%s: Compact result not marked trimmed", name)
		}
		// A verdict stored on the snapshot stays with it: its Clone, which
		// may be mutated, starts without a memo.
		c.Remember(itree.MemoFully, "probe", true)
		if v, ok := c.Recall(itree.MemoFully, "probe"); !ok || v != true {
			t.Errorf("%s: Compact result did not keep a stored verdict", name)
		}
		clone := c.Clone()
		if _, ok := clone.Recall(itree.MemoFully, "probe"); ok {
			t.Errorf("%s: Clone carried the snapshot's verdicts", name)
		}
		trimmed := clone.TrimUseless()
		if trimmed == clone {
			t.Errorf("%s: Clone carried the trimmed mark", name)
		}
		if trimmed.String() != c.String() || trimmed.MayBeEmpty != c.MayBeEmpty {
			t.Errorf("%s: a real trim changed the Compact result", name)
		}
	}
}

// rawBlowupChain folds the first n blowup queries with Refine, which never
// compacts.
func rawBlowupChain(t *testing.T, n int) *itree.T {
	t.Helper()
	world := workload.BlowupWorld()
	cur := Universal(workload.BlowupSigma)
	for _, q := range workload.BlowupWorkload(n) {
		next, err := Refine(cur, q, q.Eval(world), workload.BlowupSigma)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	return cur
}

// TestCompactEachAblation: with and without per-step compaction the chain
// represents the same set; compaction only changes the size.
func TestCompactEachAblation(t *testing.T) {
	world := workload.BlowupWorld()
	with := NewRefiner(workload.BlowupSigma, nil)
	for _, q := range workload.BlowupWorkload(3) {
		if _, err := with.ObserveOn(world, q); err != nil {
			t.Fatal(err)
		}
	}
	without := rawBlowupChain(t, 3)
	if with.Tree().Size() > without.Size() {
		t.Errorf("compaction grew the tree: %d vs %d", with.Tree().Size(), without.Size())
	}
	if eq, diff := itree.EqualRepSets(with.Tree(), without, itree.DefaultBounds()); !eq {
		t.Errorf("compaction changed rep: %s", diff)
	}
}

// TestQuickCharacterizationAcrossRandomTypes repeats the Refine
// characterization over random nonrecursive tree types, not just the
// catalog shape: w ∈ rep(T) ⇔ τ(w) ∧ ∀i q_i(w)=A_i.
func TestQuickCharacterizationAcrossRandomTypes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ty := workload.RandomType(seed, 4)
		doc, err := workload.RandomTree(ty, seed+5, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRefiner(ty.Alphabet(), ty)
		var qs []query.Query
		var answers []tree.Tree
		for k := 0; k < 3; k++ {
			q := workload.RandomLinearQuery(ty, seed*9+int64(k), 3, 6)
			a, err := r.ObserveOn(doc, q)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
			answers = append(answers, a)
		}
		know := r.Reachable()
		oracle := func(w tree.Tree) bool {
			if !ty.Conforms(w) {
				return false
			}
			for i, q := range qs {
				if !q.Eval(w).Equal(answers[i]) {
					return false
				}
			}
			return true
		}
		candidates := []tree.Tree{doc}
		for p := int64(0); p < 12; p++ {
			w, err := workload.RandomTree(ty, seed*31+p, 2, 6)
			if err != nil {
				t.Fatal(err)
			}
			candidates = append(candidates, w)
		}
		for ci, w := range candidates {
			want := oracle(w)
			got := know.Member(w)
			if got != want {
				t.Fatalf("seed %d candidate %d: Member=%v oracle=%v\ntype:\n%s\nworld:\n%s",
					seed, ci, got, want, ty, w)
			}
		}
		if !know.Member(doc) {
			t.Fatalf("seed %d: hidden document excluded", seed)
		}
	}
}

// TestBlowupRegularDoubles is the E4 regular shape gate (Theorem 3.8): on
// the E4 benchmark's Example 3.2 workload the compacted regular tree about
// doubles with every query, the 2ⁿ case split Refine cannot avoid: the
// growth each query adds is twice the growth of the query before.
func TestBlowupRegularDoubles(t *testing.T) {
	world := workload.BlowupWorld()
	r := NewRefiner(workload.BlowupSigma, nil)
	var sizes []int
	for _, q := range workload.BlowupWorkload(7) {
		if _, err := r.ObserveOn(world, q); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, r.Tree().Size())
	}
	for i := 2; i < len(sizes); i++ {
		if d, prev := sizes[i]-sizes[i-1], sizes[i-1]-sizes[i-2]; d != 2*prev {
			t.Errorf("query %d grew the tree by %d after %d, want twice as much (sizes %v)",
				i+1, d, prev, sizes)
		}
	}
}

// TestLinearChainStaysPolynomial asserts the Lemma 3.12 shape as a test,
// not just a benchmark: the compacted representation after n linear
// queries is bounded by a modest polynomial in n. On the E15 benchmark's
// chain the growth per query stays flat: queries 9-16 add at most 1.5× the
// per-query growth of queries 5-8, where a doubling chain would add 16×.
func TestLinearChainStaysPolynomial(t *testing.T) {
	ty := workload.CatalogType()
	doc := workload.RandomCatalog(6, 9)
	r := NewRefiner(workload.CatalogSigma, ty)
	base := r.Tree().Size()
	const n = 12
	for s := 0; s < n; s++ {
		q := workload.RandomLinearQuery(ty, int64(s), 3, 200)
		if _, err := r.ObserveOn(doc, q); err != nil {
			t.Fatal(err)
		}
	}
	size := r.Tree().Size()
	// Generous quadratic bound: far below the 2^n of the branching
	// workload (which would exceed 4096·base here).
	limit := base + 40*n*n
	if size > limit {
		t.Errorf("linear chain size %d exceeds polynomial bound %d", size, limit)
	}

	doc = workload.RandomCatalog(8, 5)
	r = NewRefiner(workload.CatalogSigma, ty)
	sizes := map[int]int{}
	for s := 0; s < 16; s++ {
		if _, err := r.ObserveOn(doc, workload.RandomLinearQuery(ty, int64(s), 3, 300)); err != nil {
			t.Fatal(err)
		}
		sizes[s+1] = r.Tree().Size()
	}
	early := float64(sizes[8]-sizes[4]) / 4
	late := float64(sizes[16]-sizes[8]) / 8
	if late > 1.5*early {
		t.Errorf("E15 chain: %.1f per query over queries 9-16 after %.1f over 5-8 (sizes %v)", late, early, sizes)
	}
}

// TestReachableConcurrentFirstReaders checks that concurrent first readers
// of Reachable all get the same snapshot, round after round: what is
// memoized on a snapshot (itree.T.Remember) is shared only if the pointer
// is.
func TestReachableConcurrentFirstReaders(t *testing.T) {
	const readers, rounds = 8, 50
	for round := 0; round < rounds; round++ {
		r := NewRefiner(workload.CatalogSigma, workload.CatalogType())
		if _, err := r.ObserveOn(workload.PaperCatalog(), workload.Query1(200)); err != nil {
			t.Fatal(err)
		}
		got := make([]*itree.T, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = r.Reachable()
			}()
		}
		close(start)
		wg.Wait()
		for i, g := range got {
			if g != got[0] {
				t.Fatalf("round %d: reader %d got a different snapshot from reader 0", round, i)
			}
		}
		if r.Reachable() != got[0] {
			t.Fatalf("round %d: a later reader got a different snapshot", round)
		}
	}
}
