package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/pathre"
	"incxml/internal/workload"
)

// extBody marshals an ExtRequest for posting.
func extBody(t *testing.T, req ExtRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// branchingExtQuery: two same-label product siblings (ClassBranching).
func branchingExtQuery() extquery.Query {
	return extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(), extquery.N("name", cond.True())),
		extquery.N("product", cond.True(),
			extquery.N("cat", cond.True(), extquery.N("subcat", cond.True()))))}
}

// negationExtQuery: products with no price below 100 (ClassNegation).
func negationExtQuery() extquery.Query {
	return extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(),
			extquery.Negated(extquery.N("price", cond.LtInt(100)))))}
}

// pathreExtQuery: subcats reached through a recursive path (ClassPathRE).
func pathreExtQuery() extquery.Query {
	return extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.OnPath(extquery.N("subcat", cond.True()),
			pathre.MustParse("product cat subcat")))}
}

// TestExtQueryRoute: /ext/query returns a v1 envelope with the extension
// section; the answer matches the in-package oracle on the true world once
// the knowledge is complete, and the exactness verdict is definite only
// when tractable.
func TestExtQueryRoute(t *testing.T) {
	s, err := New(Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// Acquire the whole catalog so extended answers are exact.
	if rec := post(t, h, "/explore", "catalog!\n"); rec.Code != http.StatusOK {
		t.Fatalf("warm explore: %d %s", rec.Code, rec.Body.String())
	}
	world := workload.PaperCatalog()

	cases := []struct {
		name      string
		q         extquery.Query
		class     string
		tractable bool
	}{
		{"branching", branchingExtQuery(), "branching", true},
		{"pathre", pathreExtQuery(), "pathre", true},
		{"negation", negationExtQuery(), "negation", false},
	}
	for _, tc := range cases {
		rec := post(t, h, "/ext/query", extBody(t, ExtRequestOf("catalog", tc.q, 0)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body.String())
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m["v"] != float64(1) || m["route"] != "ext_query" {
			t.Fatalf("%s: not a v1 ext_query envelope: %s", tc.name, rec.Body.String())
		}
		if got := dig(m, "extension", "class"); got != tc.class {
			t.Errorf("%s: class %v, want %s", tc.name, got, tc.class)
		}
		if got := dig(m, "extension", "tractable"); got != tc.tractable {
			t.Errorf("%s: tractable %v, want %v", tc.name, got, tc.tractable)
		}
		wantNodes := tc.q.Answer(world).Size()
		if got := int(dig(m, "answer", "nodes").(float64)); got != wantNodes {
			t.Errorf("%s: answer has %d nodes, oracle %d", tc.name, got, wantNodes)
		}
		exactV, _ := dig(m, "extension", "exactV").(string)
		if !tc.tractable && exactV != "unknown" {
			t.Errorf("%s: intractable class claims verdict %q", tc.name, exactV)
		}
		if tc.tractable && exactV != "yes" {
			// The whole document was acquired, so tractable classes certify.
			t.Errorf("%s: tractable class on complete knowledge got %q, want yes", tc.name, exactV)
		}
		if exactV == "yes" && dig(m, "completeness", "verdict") == nil {
			t.Errorf("%s: exact answer without a completeness section", tc.name)
		}
	}

	// A request without a source takes it from ?source=, as on every
	// non-scatter route.
	rec := post(t, h, "/ext/query?source=blowup", extBody(t, ExtRequestOf("", branchingExtQuery(), 0)))
	if rec.Code != http.StatusOK {
		t.Fatalf("?source=blowup: %d %s", rec.Code, rec.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["source"] != "blowup" {
		t.Errorf("?source=blowup answered for %v", m["source"])
	}
}

// TestExtQueryVerdictNeverWrongUnderBudget: under heavy step starvation
// (a 1-step request budget cap over warmed knowledge) the route still
// answers 200 but flags degradation and reports Unknown — never a
// definite verdict it cannot back.
func TestExtQueryVerdictNeverWrongUnderBudget(t *testing.T) {
	s, err := New(Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := post(t, h, "/explore", "catalog!\n"); rec.Code != http.StatusOK {
		t.Fatalf("warm explore: %d %s", rec.Code, rec.Body.String())
	}
	rec := post(t, h, "/ext/query", extBody(t, ExtRequestOf("catalog", branchingExtQuery(), 1)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%d %s", rec.Code, rec.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["degraded"] != true {
		t.Errorf("1-step budget answer not flagged degraded: %s", rec.Body.String())
	}
	if got := dig(m, "extension", "exactV"); got != "unknown" {
		t.Errorf("degraded answer claims verdict %v", got)
	}
}

// TestExtReductionRoute: /ext/reduction agrees with the brute-force
// oracles and degrades to "unknown" under a starvation budget.
func TestExtReductionRoute(t *testing.T) {
	s, err := New(Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := func(req ReductionRequest) string {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	decision := func(resp []byte) string {
		var m map[string]any
		if err := json.Unmarshal(resp, &m); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		d, _ := dig(m, "extension", "decision").(string)
		return d
	}

	// (x1 ∨ x2) ∧ (¬x1) is satisfiable; x1 ∧ ¬x1 is not.
	sat := ReductionRequest{Kind: "3sat", NumVars: 2, Clauses: [][]int{{1, 2}, {-1}}}
	unsat := ReductionRequest{Kind: "3sat", NumVars: 1, Clauses: [][]int{{1}, {-1}}}
	// (x1∨x1∨x1) ∨ (¬x1∨¬x1∨¬x1) is valid (DNF disjuncts are conjunctions:
	// here "x1" or "¬x1", one of which always holds).
	valid := ReductionRequest{Kind: "dnf", NumVars: 1, Clauses: [][]int{{1, 1, 1}, {-1, -1, -1}}}
	invalid := ReductionRequest{Kind: "dnf", NumVars: 2, Clauses: [][]int{{1, 2, 1}}}

	for _, tc := range []struct {
		req  ReductionRequest
		want string
	}{{sat, "yes"}, {unsat, "no"}, {valid, "yes"}, {invalid, "no"}} {
		rec := post(t, h, "/ext/reduction", body(tc.req))
		if rec.Code != http.StatusOK {
			t.Fatalf("%v: %d %s", tc.req, rec.Code, rec.Body.String())
		}
		if got := decision(rec.Body.Bytes()); got != tc.want {
			t.Errorf("%v: decision %q, want %q", tc.req, got, tc.want)
		}
	}

	// Starved: a 10-var formula under a 3-step cap must answer unknown.
	big := ReductionRequest{Kind: "3sat", NumVars: 10,
		Clauses: [][]int{{1, 2, 3}, {-4, 5, -6}, {7, -8, 9}, {-10, 1, -2}}, Budget: 3}
	rec := post(t, h, "/ext/reduction", body(big))
	if rec.Code != http.StatusOK {
		t.Fatalf("starved: %d %s", rec.Code, rec.Body.String())
	}
	if got := decision(rec.Body.Bytes()); got != "unknown" {
		t.Errorf("starved decider answered %q, want unknown", got)
	}
	var starved map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &starved); err != nil {
		t.Fatal(err)
	}
	if starved["degraded"] != true {
		t.Errorf("starved reduction envelope not flagged degraded: %s", rec.Body.String())
	}

	// Bad requests: unknown kind, out-of-range vars, malformed literal.
	for _, bad := range []string{
		body(ReductionRequest{Kind: "horn", NumVars: 2, Clauses: [][]int{{1}}}),
		body(ReductionRequest{Kind: "3sat", NumVars: 64, Clauses: [][]int{{1}}}),
		body(ReductionRequest{Kind: "3sat", NumVars: 2, Clauses: [][]int{{3}}}),
	} {
		if rec := post(t, h, "/ext/reduction", bad); rec.Code != http.StatusBadRequest {
			t.Errorf("bad request %s got %d", bad, rec.Code)
		}
	}
}

// TestScatterExtRoute: /scatter/ext answers every source with per-source
// extension sections, shards and per-shard health, and carries no
// scatter-wide certificate, while /scatter/local and /scatter/complete keep
// their merged one; v0 requests are rejected.
func TestScatterExtRoute(t *testing.T) {
	s, err := New(Config{Timeout: 5 * time.Second, Shards: 3, ExtraSources: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec := post(t, h, "/scatter/ext", extBody(t, ExtRequestOf("", branchingExtQuery(), 0)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%d %s", rec.Code, rec.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["route"] != "scatter_ext" {
		t.Fatalf("route %v", m["route"])
	}
	if _, ok := m["completeness"]; ok {
		t.Errorf("extended scatter carries a scatter-wide certificate: %v", m["completeness"])
	}
	answers, _ := dig(m, "scatter", "answers").([]any)
	if len(answers) != 6 { // catalog + blowup + 4 extras
		t.Fatalf("scatter answered %d sources, want 6", len(answers))
	}
	for _, a := range answers {
		am := a.(map[string]any)
		if am["error"] != nil {
			t.Errorf("%v: hard error %v", am["source"], am["error"])
		}
		if dig(am, "extension", "class") != "branching" {
			t.Errorf("%v: missing extension section", am["source"])
		}
		if _, ok := am["shard"].(float64); !ok {
			t.Errorf("%v: missing shard", am["source"])
		}
	}
	for _, path := range []string{"/scatter/local", "/scatter/complete"} {
		rec := post(t, h, path, query4Body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		perSource, _ := dig(m, "completeness", "perSource").(map[string]any)
		if dig(m, "completeness", "verdict") == nil || len(perSource) != 6 {
			t.Errorf("%s: merged certificate missing: %v", path, m["completeness"])
		}
	}

	// Extension routes are v1-only.
	if rec := post(t, h, "/ext/query?v=0", extBody(t, ExtRequestOf("catalog", branchingExtQuery(), 0))); rec.Code != http.StatusBadRequest {
		t.Errorf("v0 ext request got %d, want 400", rec.Code)
	}
	// A scatter request naming a source is a 400.
	if rec := post(t, h, "/scatter/ext", extBody(t, ExtRequestOf("catalog", branchingExtQuery(), 0))); rec.Code != http.StatusBadRequest {
		t.Errorf("scatter with source got %d, want 400", rec.Code)
	}
	// Unknown fields are a 400 (strict decode).
	if rec := post(t, h, "/ext/query", `{"pattern":{"label":"catalog"},"surprise":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field got %d, want 400", rec.Code)
	}
	// Oversized bodies are a 413, not a 400.
	huge := `{"pattern":{"label":"` + strings.Repeat("x", 1<<20) + `"}}`
	if rec := post(t, h, "/ext/query", huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body got %d, want 413", rec.Code)
	}
}
