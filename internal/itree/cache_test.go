package itree

import (
	"fmt"
	"math/rand"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// randomITree builds a small random incomplete tree over labels a/b with a
// couple of data nodes, exercising node symbols, conditions and all four
// multiplicities.
func randomITree(rng *rand.Rand) *T {
	it := New()
	labels := []tree.Label{"a", "b"}
	conds := []cond.Cond{
		cond.True(), cond.Eq(rat.FromInt(1)), cond.Ne(rat.FromInt(1)),
		cond.Le(rat.FromInt(2)), cond.Ge(rat.FromInt(2)),
	}
	mults := []dtd.Mult{dtd.One, dtd.Opt, dtd.Plus, dtd.Star}
	nSyms := 2 + rng.Intn(3)
	syms := make([]ctype.Symbol, nSyms)
	for i := range syms {
		syms[i] = ctype.Symbol(fmt.Sprintf("s%d", i))
		it.Type.Sigma[syms[i]] = ctype.LabelTarget(labels[rng.Intn(len(labels))])
		it.Type.Cond[syms[i]] = conds[rng.Intn(len(conds))]
	}
	if rng.Intn(2) == 0 {
		id := tree.NodeID("n0")
		it.Nodes[id] = NodeInfo{Label: "a", Value: rat.FromInt(1)}
		ns := ctype.Symbol("ns0")
		it.Type.Sigma[ns] = ctype.NodeTarget(id)
		syms = append(syms, ns)
	}
	// Children only reference strictly higher-indexed symbols so the type is
	// well-founded (Witness and Enumerate recurse on children).
	for si, s := range syms {
		nAtoms := 1 + rng.Intn(2)
		var d ctype.Disj
		for i := 0; i < nAtoms; i++ {
			var a ctype.SAtom
			if si+1 < len(syms) {
				for j := 0; j < rng.Intn(3); j++ {
					child := syms[si+1+rng.Intn(len(syms)-si-1)]
					m := mults[rng.Intn(len(mults))]
					if it.Type.Sigma[child].IsNode() {
						m = dtd.One
					}
					a = append(a, ctype.SItem{Sym: child, Mult: m})
				}
			}
			d = append(d, a)
		}
		it.Type.Mu[s] = d
	}
	nRoots := 1 + rng.Intn(2)
	for i := 0; i < nRoots; i++ {
		it.Type.Roots = append(it.Type.Roots, syms[rng.Intn(len(syms))])
	}
	it.MayBeEmpty = rng.Intn(4) == 0
	return it
}

func TestMemberCacheHitsAndInvalidation(t *testing.T) {
	ResetCache()
	it := example22()
	d, ok := it.Witness()
	if !ok {
		t.Fatal("no witness")
	}
	if !it.Member(d) {
		t.Fatal("witness not a member")
	}
	before := CacheStats()
	for i := 0; i < 5; i++ {
		it.Member(d)
	}
	after := CacheStats()
	if after.Hits < before.Hits+5 {
		t.Fatalf("repeated Member not served from cache: %+v -> %+v", before, after)
	}
	// Mutating the tree changes its fingerprint: the stale entry must not
	// be observable.
	it.Type.Cond["n"] = cond.Eq(rat.FromInt(99))
	if it.Member(d) {
		t.Fatal("mutated tree still reports membership (stale cache entry)")
	}
}

func TestPrefixCacheAgreesWithUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 15; i++ {
		it := randomITree(rng)
		cand, ok := it.Witness()
		if !ok {
			continue
		}
		ResetCache()
		p1 := it.IsPossiblePrefix(cand)
		c1 := it.IsCertainPrefix(cand)
		// Second round must hit the cache and agree.
		p2 := it.IsPossiblePrefix(cand)
		c2 := it.IsCertainPrefix(cand)
		if p1 != p2 || c1 != c2 {
			t.Fatalf("instance %d: cached prefix results flipped: poss %v->%v cert %v->%v", i, p1, p2, c1, c2)
		}
		if p1 != it.isPossiblePrefix(cand) || c1 != it.isCertainPrefix(cand) {
			t.Fatalf("instance %d: cached result disagrees with direct computation", i)
		}
	}
}
