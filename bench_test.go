// Benchmark harness: one benchmark per experiment of DESIGN.md's
// per-experiment index (E1-E17). The paper is a theory paper, so the
// quantities of interest are complexity shapes: representation-size growth
// (reported as the custom metric "repsize") and runtime scaling across
// parameter sweeps. EXPERIMENTS.md records the paper-claim vs the measured
// shape for every row.
package incxml

import (
	"fmt"
	"testing"

	"incxml/internal/answer"
	"incxml/internal/cfg"
	"incxml/internal/conj"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/extquery"
	"incxml/internal/itree"
	"incxml/internal/mediator"
	"incxml/internal/pebble"
	"incxml/internal/rat"
	"incxml/internal/reductions"
	"incxml/internal/refine"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// --- E1: Figures 1-6 — catalog queries over growing documents ------------

func BenchmarkE1CatalogQuery(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		doc := workload.RandomCatalog(n, 1)
		q := workload.Query1(200)
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Eval(doc)
			}
		})
	}
}

// --- E2: Example 2.2 — answer construction q(T) --------------------------

func example22() *itree.T {
	it := itree.New()
	it.Nodes["r"] = itree.NodeInfo{Label: "root", Value: rat.Zero}
	it.Nodes["n"] = itree.NodeInfo{Label: "a", Value: rat.Zero}
	ty := it.Type
	ty.Roots = []ctype.Symbol{"r"}
	ty.Sigma["r"] = ctype.NodeTarget("r")
	ty.Sigma["n"] = ctype.NodeTarget("n")
	ty.Sigma["a"] = ctype.LabelTarget("a")
	ty.Sigma["b"] = ctype.LabelTarget("b")
	ty.Mu["r"] = ctype.Disj{ctype.SAtom{{Sym: "n", Mult: dtd.One}, {Sym: "a", Mult: dtd.Star}}}
	ty.Mu["a"] = ctype.Disj{ctype.SAtom{{Sym: "b", Mult: dtd.Star}}}
	ty.Mu["n"] = ctype.Disj{ctype.SAtom{{Sym: "b", Mult: dtd.Star}}}
	ty.Cond["r"] = Eq(rat.Zero)
	ty.Cond["n"] = Eq(rat.Zero)
	ty.Cond["a"] = Ne(rat.Zero)
	return it
}

func BenchmarkE2AnswerConstruction(b *testing.B) {
	it := example22()
	q := MustParseQuery("root\n  a\n    b\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := answer.Apply(it, q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Figures 8-9 — the Refine chain on the catalog -------------------

func BenchmarkE3Refine(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		doc := workload.RandomCatalog(n, 2)
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := refine.NewRefiner(workload.CatalogSigma, workload.CatalogType())
				if _, err := r.ObserveOn(doc, workload.Query1(200)); err != nil {
					b.Fatal(err)
				}
				if _, err := r.ObserveOn(doc, workload.Query2()); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Reachable().Size()), "repsize")
			}
		})
	}
}

// --- E4: Example 3.2 — exponential vs conjunctive growth -----------------

func BenchmarkE4BlowupRegular(b *testing.B) {
	world := workload.BlowupWorld()
	for _, n := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := refine.NewRefiner(workload.BlowupSigma, nil)
				for _, q := range workload.BlowupWorkload(n) {
					if _, err := r.ObserveOn(world, q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Tree().Size()), "repsize")
			}
		})
	}
}

func BenchmarkE4BlowupConjunctive(b *testing.B) {
	world := workload.BlowupWorld()
	for _, n := range []int{2, 4, 6, 12, 24} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := conj.FromITree(refine.Universal(workload.BlowupSigma))
				for _, q := range workload.BlowupWorkload(n) {
					if err := c.RefinePlus(q, q.Eval(world), workload.BlowupSigma); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(c.Size()), "repsize")
			}
		})
	}
}

// --- E5: Theorem 2.8 — certain/possible prefix scaling --------------------

func catalogKnowledge(b *testing.B, products int) *itree.T {
	b.Helper()
	doc := workload.RandomCatalog(products, 3)
	r := refine.NewRefiner(workload.CatalogSigma, workload.CatalogType())
	// Random prices stay below 460, so this answer is never empty and the
	// knowledge always has a data tree to anchor mediator queries at.
	if _, err := r.ObserveOn(doc, workload.Query1(460)); err != nil {
		b.Fatal(err)
	}
	return r.Reachable()
}

func BenchmarkE5CertainPrefix(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		know := catalogKnowledge(b, n)
		cand := know.DataTree()
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				know.IsCertainPrefix(cand)
			}
		})
	}
}

func BenchmarkE5PossiblePrefix(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		know := catalogKnowledge(b, n)
		cand := know.DataTree()
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				know.IsPossiblePrefix(cand)
			}
		})
	}
}

// --- E6: Lemma 2.5 vs Theorem 3.10 — emptiness, PTIME vs NP ---------------

func BenchmarkE6EmptinessRegular(b *testing.B) {
	world := workload.BlowupWorld()
	for _, n := range []int{2, 4, 6} {
		r := refine.NewRefiner(workload.BlowupSigma, nil)
		for _, q := range workload.BlowupWorkload(n) {
			if _, err := r.ObserveOn(world, q); err != nil {
				b.Fatal(err)
			}
		}
		t := r.Tree()
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.Empty()
			}
		})
	}
}

func BenchmarkE6EmptinessConjunctive(b *testing.B) {
	world := workload.BlowupWorld()
	for _, n := range []int{1, 2, 3} {
		c := conj.FromITree(refine.Universal(workload.BlowupSigma))
		for _, q := range workload.BlowupWorkload(n) {
			if err := c.RefinePlus(q, q.Eval(world), workload.BlowupSigma); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Empty()
			}
		})
	}
}

// --- E7: Theorem 3.14 — q(T) vs alphabet size and document size -----------

func BenchmarkE7AnswerVsSigma(b *testing.B) {
	// The Theorem 3.14 construction expands disjunctively over which
	// instance witnesses each pattern child: with k specializations per
	// label and two pattern children, the answer type carries k² atoms.
	// This is the "exponential in Σ" term of the theorem.
	for _, k := range []int{2, 4, 8} {
		it := itree.New()
		ty := it.Type
		ty.Roots = []ctype.Symbol{"r"}
		ty.Sigma["r"] = ctype.LabelTarget("root")
		atom := ctype.SAtom{}
		for i := 0; i < k; i++ {
			sa := ctype.Symbol(fmt.Sprintf("a%d", i))
			sb := ctype.Symbol(fmt.Sprintf("b%d", i))
			ty.Sigma[sa] = ctype.LabelTarget("a")
			ty.Sigma[sb] = ctype.LabelTarget("b")
			ty.Cond[sa] = Eq(rat.FromInt(int64(i)))
			ty.Cond[sb] = Eq(rat.FromInt(int64(i)))
			atom = append(atom,
				ctype.SItem{Sym: sa, Mult: dtd.Star},
				ctype.SItem{Sym: sb, Mult: dtd.Star})
		}
		ty.Mu["r"] = ctype.Disj{atom}
		q := Query{Root: QN("root", True(), QN("a", True()), QN("b", True()))}
		b.Run(fmt.Sprintf("specializations=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ans, err := answer.Apply(it, q)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ans.Size()), "repsize")
			}
		})
	}
}

func BenchmarkE7AnswerVsTree(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		know := catalogKnowledge(b, n)
		q := workload.Query4()
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := answer.Apply(know, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: Corollary 3.15 — answering queries using views -------------------

func BenchmarkE8FullyAnswerable(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		know := catalogKnowledge(b, n)
		q3 := workload.Query3(100)
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := answer.FullyAnswerable(know, q3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: Theorem 3.19 — completion generation -----------------------------

func BenchmarkE9Completion(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		know := catalogKnowledge(b, n)
		q4 := workload.Query4()
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mediator.Complete(know, q4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E10: Theorem 3.6 — the 3-SAT reduction -------------------------------

func BenchmarkE10ThreeSAT(b *testing.B) {
	cases := []struct {
		name string
		f    reductions.Formula
	}{
		{"1var-1clause", reductions.Formula{NumVars: 1, Clauses: []reductions.Clause{
			{{Var: 1}}}}},
		{"1var-2clauses", reductions.Formula{NumVars: 1, Clauses: []reductions.Clause{
			{{Var: 1}}, {{Var: 1, Neg: true}}}}},
		{"2var-width2", reductions.Formula{NumVars: 2, Clauses: []reductions.Clause{
			{{Var: 1}, {Var: 2}}, {{Var: 1, Neg: true}, {Var: 2}}}}},
	}
	for _, c := range cases {
		inst, err := reductions.BuildThreeSAT(c.f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inst.Decide(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E11: Theorem 4.1 — the DNF-validity reduction ------------------------

func BenchmarkE11DNF(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		// Valid formula: for variable 1, both polarities (padded to 3).
		d := reductions.DNF{NumVars: n, Disjuncts: []reductions.Disjunct{
			{{Var: 1}, {Var: 1}, {Var: 1}},
			{{Var: 1, Neg: true}, {Var: 1, Neg: true}, {Var: 1, Neg: true}},
		}}
		inst, err := reductions.BuildDNF(d)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst.Decide()
			}
		})
	}
}

// --- E12: Theorem 4.2 — k-pebble representation maintenance ---------------

func BenchmarkE12Pebble(b *testing.B) {
	doc := workload.RandomCatalog(32, 4)
	bt := pebble.Encode(doc)
	mk := func(target tree.Label) *pebble.Automaton {
		a := pebble.NewAutomaton(1, "seek", "found")
		a.Add(pebble.Transition{Guard: pebble.Guard{State: "seek", Label: target}, Move: pebble.Stay, Next: "found"})
		for _, m := range []pebble.MoveKind{pebble.DownLeft, pebble.DownRight, pebble.Up} {
			a.Add(pebble.Transition{Guard: pebble.Guard{State: "seek"}, Move: m, Next: "seek"})
		}
		return a
	}
	for _, n := range []int{1, 4, 16} {
		il := &pebble.IntersectionList{}
		for i := 0; i < n; i++ {
			il.Add(mk("price"))
		}
		b.Run(fmt.Sprintf("constraints=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				il.Member(bt)
			}
			b.ReportMetric(float64(il.Size()), "repsize")
		})
	}
}

// --- E13: Theorems 4.5 / 4.7 — undecidability constructions ---------------

func BenchmarkE13FDIND(b *testing.B) {
	inst, err := reductions.BuildFDIND(3,
		[]reductions.Dependency{
			{FD: &reductions.FD{Lhs: []int{1}, Rhs: 2}},
			{FD: &reductions.FD{Lhs: []int{2}, Rhs: 3}},
		},
		reductions.FD{Lhs: []int{1}, Rhs: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.DecideBounded(2, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13CFGSearch(b *testing.B) {
	g1 := cfg.MustParse("start: S\nS -> a b | a S1\nS1 -> S b\n")
	g2 := cfg.MustParse("start: P\nP -> a | b | a P | b P\n")
	inst, err := reductions.BuildCFGIntersection(g1, g2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found := inst.SearchIntersection(4, 20); !found {
			b.Fatal("witness disappeared")
		}
	}
}

// --- E14: Section 4 — branching blow-up ------------------------------------

func BenchmarkE14BranchingBlowup(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		// Input: root with n a-children, each with all n b-values; the
		// branching query with n distinct b-conditions has n^n valuation
		// combinations to explore.
		root := tree.New("root", rat.Zero)
		for i := 0; i < n; i++ {
			a := tree.New("a", rat.Zero)
			for j := 1; j <= n; j++ {
				a.Children = append(a.Children, tree.New("b", rat.FromInt(int64(j))))
			}
			root.Children = append(root.Children, a)
		}
		doc := tree.Tree{Root: root}
		pat := extquery.N("root", True())
		for j := 1; j <= n; j++ {
			pat.Children = append(pat.Children,
				extquery.N("a", True(), extquery.N("b", Eq(rat.FromInt(int64(j))))))
		}
		q := extquery.Query{Root: pat}
		b.Run(fmt.Sprintf("branches=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Answer(doc)
			}
		})
	}
}

// --- E15: Lemma 3.12 — linear queries stay polynomial ----------------------

func BenchmarkE15LinearQueries(b *testing.B) {
	doc := workload.RandomCatalog(8, 5)
	ty := workload.CatalogType()
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := refine.NewRefiner(workload.CatalogSigma, ty)
				for s := 0; s < n; s++ {
					q := workload.RandomLinearQuery(ty, int64(s), 3, 300)
					if _, err := r.ObserveOn(doc, q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Tree().Size()), "repsize")
			}
		})
	}
}

// --- E16: Proposition 3.13 — additional queries curb growth ----------------

func BenchmarkE16AdditionalQueries(b *testing.B) {
	world := workload.BlowupWorld()
	for _, n := range []int{2, 4, 6} {
		qs := workload.BlowupWorkload(n)
		extra := AdditionalQueries(qs)
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := refine.NewRefiner(workload.BlowupSigma, nil)
				for _, q := range extra {
					if _, err := r.ObserveOn(world, q); err != nil {
						b.Fatal(err)
					}
				}
				for _, q := range qs {
					if _, err := r.ObserveOn(world, q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Tree().Size()), "repsize")
			}
		})
	}
}

// --- E17: Section 3.2 — lossy shrinking -------------------------------------

func BenchmarkE17Lossy(b *testing.B) {
	world := workload.BlowupWorld()
	r := refine.NewRefiner(workload.BlowupSigma, nil)
	for _, q := range workload.BlowupWorkload(5) {
		if _, err := r.ObserveOn(world, q); err != nil {
			b.Fatal(err)
		}
	}
	big := r.Tree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shrunk := LossyShrink(big, big.Size()/3)
		b.ReportMetric(float64(shrunk.Size()), "repsize")
	}
}

// --- Ablations: design choices called out in DESIGN.md ---------------------

// BenchmarkAblationCompact measures the effect of per-step compaction on
// the Refine chain (the implementation choice that realizes Lemma 3.12's
// bound): identical rep, very different sizes and costs.
func BenchmarkAblationCompact(b *testing.B) {
	world := workload.BlowupWorld()
	for _, compact := range []bool{true, false} {
		name := "compact=on"
		if !compact {
			name = "compact=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := refine.NewRefiner(workload.BlowupSigma, nil)
				r.CompactEach = compact
				for _, q := range workload.BlowupWorkload(5) {
					if _, err := r.ObserveOn(world, q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Tree().Size()), "repsize")
			}
		})
	}
}

// BenchmarkAblationConjEmptiness compares the two emptiness procedures for
// conjunctive trees: the NP certificate search (Theorem 3.10's upper-bound
// algorithm) vs the full DNF expansion followed by the PTIME regular test.
func BenchmarkAblationConjEmptiness(b *testing.B) {
	world := workload.BlowupWorld()
	c := conj.FromITree(refine.Universal(workload.BlowupSigma))
	for _, q := range workload.BlowupWorkload(3) {
		if err := c.RefinePlus(q, q.Eval(world), workload.BlowupSigma); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("certificate-guess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Empty()
		}
	})
	b.Run("dnf-expansion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			expanded, err := c.ToITree()
			if err != nil {
				b.Fatal(err)
			}
			expanded.Empty()
		}
	})
}

// BenchmarkAblationConditionNormalForm measures the payoff of the eager
// Lemma 2.3 interval normalization: satisfiability and disjointness are
// O(size of normal form) rather than requiring per-query solving.
func BenchmarkAblationConditionNormalForm(b *testing.B) {
	// A chain of conjunctions of inequalities, as produced by the blow-up
	// workload.
	c := True()
	for i := int64(1); i <= 32; i++ {
		c = c.And(Ne(rat.FromInt(i)))
	}
	d := Ge(rat.FromInt(10)).And(Le(rat.FromInt(20)))
	b.Run("satisfiable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Satisfiable()
		}
	})
	b.Run("disjoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Disjoint(d)
		}
	})
	b.Run("and-normalize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c.And(d)
		}
	})
}
