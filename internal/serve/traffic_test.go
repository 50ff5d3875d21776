package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"incxml/internal/extquery"
	"incxml/internal/reductions"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// TestE25TrafficSmoke is the short-mode E25 smoke: a small generated
// traffic stream driven through RequestForOp against an unstressed
// server. Every op must land a 200, extension verdicts must never
// contradict the in-package oracles, exact extended answers must match
// the oracle on every source, and reduction decisions must match the
// brute-force deciders — the same contract the repository benchmark's
// mixed workload checks at scale.
func TestE25TrafficSmoke(t *testing.T) {
	s, err := New(Config{Timeout: 10 * time.Second, ExtraSources: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	cfg := workload.TrafficConfig{
		Seed:     11,
		Sessions: 40,
		Sources:  []string{"catalog", "cat00", "cat01"},
	}
	ops, err := workload.GenerateTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each source's world is the document the server holds, read back
	// through the shard that owns it.
	worlds := map[string]tree.Tree{}
	for _, name := range cfg.Sources {
		g, err := s.Cluster().Owner(name)
		if err != nil {
			t.Fatal(err)
		}
		repo, err := g.Webhouse().Repo(name)
		if err != nil {
			t.Fatal(err)
		}
		worlds[name] = repo.Source.Doc()
	}
	extChecked, redChecked := map[string]int{}, 0
	for _, op := range ops {
		path, body, err := RequestForOp(op)
		if err != nil {
			t.Fatalf("op %d/%d: %v", op.Session, op.Step, err)
		}
		rec := post(t, h, path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("op %d/%d (%s %s): %d %s", op.Session, op.Step, op.Kind, path, rec.Code, rec.Body.String())
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("op %d/%d: bad envelope: %v", op.Session, op.Step, err)
		}
		switch op.Kind {
		case workload.OpExtended:
			class, _ := dig(m, "extension", "class").(string)
			exactV, _ := dig(m, "extension", "exactV").(string)
			if !extquery.Class(class).Tractable() && exactV != "unknown" {
				t.Errorf("op %d/%d: intractable class %q claims %q", op.Session, op.Step, class, exactV)
			}
			// Against the source's world the oracle is exact; "yes"
			// answers must match it node-for-node.
			if exactV == "yes" {
				want := op.Ext.Answer(worlds[op.Source]).Size()
				if got := int(dig(m, "answer", "nodes").(float64)); got != want {
					t.Errorf("op %d/%d: exact answer on %s has %d nodes, oracle %d", op.Session, op.Step, op.Source, got, want)
				}
				extChecked[op.Source]++
			}
		case workload.OpReduction:
			decision, _ := dig(m, "extension", "decision").(string)
			want := reductionOracle(t, op.Red)
			if decision != "unknown" && decision != want {
				t.Errorf("op %d/%d: %s decision %q, oracle %q", op.Session, op.Step, op.Red.Kind, decision, want)
			}
			redChecked++
		}
	}
	t.Logf("exact extended answers checked per source: %v", extChecked)
	for _, name := range cfg.Sources {
		if extChecked[name] == 0 {
			t.Errorf("smoke never checked an exact extended answer on %s against the oracle", name)
		}
	}
	if redChecked == 0 {
		t.Error("smoke never checked a reduction decision")
	}
}

// reductionOracle evaluates a reduction probe with the in-package
// brute-force deciders.
func reductionOracle(t *testing.T, spec *workload.ReductionSpec) string {
	t.Helper()
	lits := func(cl []int) []reductions.Lit {
		out := make([]reductions.Lit, len(cl))
		for i, v := range cl {
			if v < 0 {
				out[i] = reductions.Lit{Var: -v, Neg: true}
			} else {
				out[i] = reductions.Lit{Var: v}
			}
		}
		return out
	}
	switch spec.Kind {
	case "3sat":
		f := reductions.Formula{NumVars: spec.NumVars}
		for _, cl := range spec.Clauses {
			f.Clauses = append(f.Clauses, reductions.Clause(lits(cl)))
		}
		if f.Satisfiable() {
			return "yes"
		}
		return "no"
	case "dnf":
		d := reductions.DNF{NumVars: spec.NumVars}
		for _, cl := range spec.Clauses {
			l := lits(cl)
			d.Disjuncts = append(d.Disjuncts, reductions.Disjunct{l[0], l[1], l[2]})
		}
		if d.Valid() {
			return "yes"
		}
		return "no"
	}
	t.Fatalf("unknown reduction kind %q", spec.Kind)
	return ""
}
