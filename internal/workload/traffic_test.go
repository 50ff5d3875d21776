package workload

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"incxml/internal/extquery"
	"incxml/internal/query"
	"incxml/internal/tree"
)

func testTrafficConfig() TrafficConfig {
	return TrafficConfig{
		Seed:     7,
		Sessions: 80,
		Sources:  []string{"catalog", "cat00", "cat01", "cat02"},
	}
}

// TestGenerateTrafficDeterministic: equal configs generate identical
// streams — the replay contract.
func TestGenerateTrafficDeterministic(t *testing.T) {
	a, err := GenerateTraffic(testTrafficConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTraffic(testTrafficConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different streams")
	}
	c, err := GenerateTraffic(TrafficConfig{Seed: 8, Sessions: 80,
		Sources: []string{"catalog", "cat00", "cat01", "cat02"}})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical streams")
	}
}

// TestGenerateTrafficShapes checks the session shapes: every class
// arrives under the default mix, ps-query texts parse, extended ops carry
// a pattern whose classification matches the arrival class, blowup
// sessions stay on the blowup source, and twig sessions pose a query that
// matches the examples they were inferred from.
func TestGenerateTrafficShapes(t *testing.T) {
	ops, err := GenerateTraffic(testTrafficConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[QueryClass]int{}
	kinds := map[OpKind]int{}
	twigs := 0
	for _, op := range ops {
		seen[op.Class]++
		kinds[op.Kind]++
		switch op.Kind {
		case OpExplore, OpLocal, OpComplete:
			if _, err := query.Parse(op.Query); err != nil {
				t.Fatalf("op %d/%d: unparseable query %q: %v", op.Session, op.Step, op.Query, err)
			}
		case OpExtended:
			if op.Ext == nil {
				t.Fatalf("op %d/%d: extended op without pattern", op.Session, op.Step)
			}
			wantClass := extquery.Class(op.Class)
			if got := op.Ext.Classify(); got != wantClass {
				t.Errorf("op %d/%d: pattern classifies as %s, arrival class %s",
					op.Session, op.Step, got, op.Class)
			}
			if op.ExtText != op.Ext.String() {
				t.Errorf("op %d/%d: ExtText out of sync with pattern", op.Session, op.Step)
			}
		case OpReduction:
			if op.Red == nil || (op.Red.Kind != "3sat" && op.Red.Kind != "dnf") {
				t.Fatalf("op %d/%d: bad reduction probe %+v", op.Session, op.Step, op.Red)
			}
			if op.Red.Kind == "dnf" {
				for _, d := range op.Red.Clauses {
					if len(d) != 3 {
						t.Fatalf("op %d/%d: dnf disjunct width %d", op.Session, op.Step, len(d))
					}
				}
			}
		}
		if op.Class == TrafficBlowup && op.Source != "blowup" {
			t.Errorf("blowup op on source %q", op.Source)
		}
		if op.Kind == OpLocal && strings.Contains(op.Desc, "twig inferred") {
			twigs++
		}
	}
	for _, c := range TrafficClasses() {
		if seen[c] == 0 {
			t.Errorf("class %s never arrived under the default mix", c)
		}
	}
	for _, k := range []OpKind{OpExplore, OpLocal, OpComplete, OpExtended, OpReduction} {
		if kinds[k] == 0 {
			t.Errorf("kind %s never generated", k)
		}
	}
	if twigs == 0 {
		t.Error("no twig sessions generated (TwigEvery default should fire)")
	}
}

// TestGenerateTrafficZipfSkew: the head source must be strictly more
// popular than the tail under the zipfian draw.
func TestGenerateTrafficZipfSkew(t *testing.T) {
	cfg := testTrafficConfig()
	cfg.Sessions = 400
	ops, err := GenerateTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, op := range ops {
		if op.Step == 0 && op.Source != "blowup" {
			counts[op.Source]++
		}
	}
	if counts["catalog"] <= counts["cat02"] {
		t.Errorf("zipf head not favored: head=%d tail=%d", counts["catalog"], counts["cat02"])
	}
}

// TestGenerateTrafficRejectsBadMix: a mix GenerateTraffic cannot draw
// from is an error, never a panic ("invalid argument to Intn" on a
// negative total) or a silent fallback to catalog traffic (an unknown
// class). The last row replays a trace whose header, outside input,
// carries such a mix.
func TestGenerateTrafficRejectsBadMix(t *testing.T) {
	trace := `{"config":{"seed":1,"sessions":4,"mix":{"catalog":-5,"join":1}},"ops":0}` + "\n"
	replayed, _, err := ReadTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  TrafficConfig
	}{
		{"unknown class", TrafficConfig{Mix: Mix{"horn": 1}}},
		{"unknown class beside a known one", TrafficConfig{Mix: Mix{TrafficCatalog: 1, "horn": 1}}},
		{"negative weight", TrafficConfig{Mix: Mix{TrafficCatalog: -1}}},
		{"negative total", TrafficConfig{Mix: Mix{TrafficCatalog: -5, TrafficJoin: 1}}},
		{"no positive weight", TrafficConfig{Mix: Mix{TrafficCatalog: 0}}},
		{"replayed trace header", replayed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if ops, err := GenerateTraffic(tc.cfg); err == nil {
				t.Errorf("mix %v accepted, %d ops", tc.cfg.Mix, len(ops))
			}
		})
	}
	// An empty mix is the default, not an error.
	if _, err := GenerateTraffic(TrafficConfig{Mix: Mix{}}); err != nil {
		t.Errorf("empty mix: %v", err)
	}
}

// TestTraceRoundTrip: a written trace reads back with the same config and
// op count, and regenerating from the recorded config reproduces the
// stream — the replayable-seed contract for archived traces.
func TestTraceRoundTrip(t *testing.T) {
	cfg := testTrafficConfig()
	cfg.Sessions = 24
	ops, err := GenerateTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cfg, ops); err != nil {
		t.Fatal(err)
	}
	gotCfg, gotOps, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotOps) != len(ops) {
		t.Fatalf("read %d ops, wrote %d", len(gotOps), len(ops))
	}
	replayed, err := GenerateTraffic(gotCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, ops) {
		t.Fatal("regenerating from the trace config did not reproduce the stream")
	}
	for i, op := range gotOps {
		if op.Kind != ops[i].Kind || op.Query != ops[i].Query || op.Source != ops[i].Source {
			t.Fatalf("op %d drifted through the trace: %+v vs %+v", i, op, ops[i])
		}
	}
}

// TestTraceFixture writes the replayable traffic-trace fixture when
// TRAFFIC_TRACE_OUT is set (the CI artifact hook; a no-op otherwise).
func TestTraceFixture(t *testing.T) {
	out := os.Getenv("TRAFFIC_TRACE_OUT")
	if out == "" {
		t.Skip("TRAFFIC_TRACE_OUT not set")
	}
	cfg := TrafficConfig{Seed: 2026, Sessions: 48,
		Sources: []string{"catalog", "cat00", "cat01", "cat02", "cat03"}}
	ops, err := GenerateTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := WriteTrace(f, cfg, ops); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d ops to %s", len(ops), out)
}

// TestInferTwig pins the anti-unification: over the paper catalog's
// products the inferred twig keeps the labels common to every example,
// drops pictures (nikon has none), and uses equality conditions exactly
// when the pooled values agree.
func TestInferTwig(t *testing.T) {
	products := PaperCatalog().Root.Children
	q, err := InferTwig(products)
	if err != nil {
		t.Fatal(err)
	}
	got := q.String()
	// Structural nodes all carry the zero value, so anti-unification pins
	// them with equalities; only the genuinely varying leaves (name,
	// price, subcat) stay unconstrained.
	want := "product {= 0}\n  cat {= 1}\n    subcat\n  name\n  price\n"
	if got != want {
		t.Fatalf("inferred twig:\n%s\nwant:\n%s", got, want)
	}
	// The inferred twig matches every example it was learned from.
	for _, p := range products {
		if !q.Matches(tree.Tree{Root: p}) {
			t.Errorf("inferred twig does not match example %s", p.ID)
		}
	}
	// Identical examples anti-unify to equalities everywhere.
	q2, err := InferTwig([]*tree.Node{products[0], products[0]})
	if err != nil {
		t.Fatal(err)
	}
	q2.Walk(func(n *query.Node) {
		if n.Cond.IsTrue() {
			t.Errorf("identical examples left a trivial condition at %s", n.Label)
		}
	})
	// Disagreeing root labels are an error.
	if _, err := InferTwig([]*tree.Node{products[0], products[0].Children[0]}); err == nil {
		t.Error("InferTwig accepted examples with different root labels")
	}
}
