package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// newHealthyServer builds a no-fault server and warms the catalog source.
func newHealthyServer(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	s, err := New(Config{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := post(t, h, "/explore", catalogBody); rec.Code != http.StatusOK {
		t.Fatalf("warm-up explore: %d (%s)", rec.Code, rec.Body)
	}
	return s, h
}

// TestEnvelopeV1RoundTrip pins the v1 schema: every answer route's response
// must decode into AnswerEnvelope with no unknown fields (a field the
// server emits but the type does not declare is a schema break) and
// re-encode to the identical JSON document. The /local fixture is persisted
// for the CI artifact when V1_FIXTURE_OUT is set.
func TestEnvelopeV1RoundTrip(t *testing.T) {
	_, h := newHealthyServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/explore", catalogBody},
		{"/local", query4Body},
		{"/complete", query4Body},
		{"/scatter/local", query4Body},
		{"/scatter/complete", query4Body},
	} {
		rec := post(t, h, tc.path, tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", tc.path, rec.Code, rec.Body)
		}
		raw := rec.Body.Bytes()
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var env AnswerEnvelope
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("%s: response does not fit the v1 schema: %v\n%s", tc.path, err, raw)
		}
		if env.V != EnvelopeVersion {
			t.Errorf("%s: v = %d, want %d", tc.path, env.V, EnvelopeVersion)
		}
		if env.Completeness == nil || env.Completeness.Verdict == "" {
			t.Errorf("%s: envelope without a completeness certificate", tc.path)
		}
		reenc, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		var got, want map[string]any
		if err := json.Unmarshal(reenc, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: envelope does not round-trip:\ndecoded+re-encoded: %s\nserved:             %s",
				tc.path, reenc, raw)
		}
		if tc.path == "/local" {
			if out := os.Getenv("V1_FIXTURE_OUT"); out != "" {
				if err := os.WriteFile(out, raw, 0o644); err != nil {
					t.Errorf("writing V1_FIXTURE_OUT: %v", err)
				}
			}
		}
	}
}

// TestBadInputsSameOnEveryRoute pins the single decoder: the same bad input
// gets the same status and the JSON error envelope on all eight answer
// routes, while the untouched request is a 200 on each.
func TestBadInputsSameOnEveryRoute(t *testing.T) {
	_, h := newHealthyServer(t)
	// fields is a valid JSON request for each route, without its braces;
	// crossed is a real consistency level the route does not imply (the
	// extension routes have no consistency field, so any value is unknown).
	routes := map[string]struct{ fields, crossed string }{
		"/explore":          {`"query": "catalog\n"`, "local"},
		"/local":            {`"query": "catalog\n"`, "complete"},
		"/complete":         {`"query": "catalog\n"`, "local"},
		"/scatter/local":    {`"query": "catalog\n"`, "complete"},
		"/scatter/complete": {`"query": "catalog\n"`, "local"},
		"/ext/query":        {`"pattern": {"label": "catalog"}`, "local"},
		"/scatter/ext":      {`"pattern": {"label": "catalog"}`, "local"},
		"/ext/reduction":    {`"kind": "3sat", "numVars": 1, "clauses": [[1]]`, "local"},
	}
	for _, tc := range []struct {
		name, params, body   string // body wraps the route's fields as %s
		scatterOnly, crossed bool   // crossed adds the route's crossed level
		want                 int
	}{
		{"valid", "", `{%s}`, false, false, http.StatusOK},
		{"oversized", "", `{%s, "pad": "` + strings.Repeat("x", 1<<20) + `"}`, false, false, http.StatusRequestEntityTooLarge},
		{"unknown field", "", `{%s, "shiny": true}`, false, false, http.StatusBadRequest},
		{"trailing data", "", `{%s} {"again": true}`, false, false, http.StatusBadRequest},
		{"negative budget", "", `{%s, "budget": -1}`, false, false, http.StatusBadRequest},
		{"crossed consistency", "", `{%s}`, false, true, http.StatusBadRequest},
		{"v0", "?v=0", `{%s}`, false, false, http.StatusBadRequest},
		{"v2", "?v=2", `{%s}`, false, false, http.StatusBadRequest},
		{"sourced scatter", "", `{%s, "source": "catalog"}`, true, false, http.StatusBadRequest},
	} {
		for path, rt := range routes {
			if tc.scatterOnly && !strings.HasPrefix(path, "/scatter/") {
				continue
			}
			f := rt.fields
			if tc.crossed {
				f += fmt.Sprintf(`, "consistency": %q`, rt.crossed)
			}
			rec := post(t, h, path+tc.params, fmt.Sprintf(tc.body, f))
			if rec.Code != tc.want {
				t.Errorf("%s %s: %d, want %d (%.200s)", tc.name, path, rec.Code, tc.want, rec.Body)
				continue
			}
			if tc.want == http.StatusOK {
				continue
			}
			var e errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.V != EnvelopeVersion || e.Status != tc.want || e.Error == "" {
				t.Errorf("%s %s: %d without the error envelope: %.200s", tc.name, path, rec.Code, rec.Body)
			}
		}
	}
}

// TestUnifiedAnswerRequest exercises the JSON AnswerRequest body: it must
// produce the same answer as the raw-query body, and a budget field runs
// the request under that step cap. The decoder's rejections are pinned on
// every route by TestBadInputsSameOnEveryRoute.
func TestUnifiedAnswerRequest(t *testing.T) {
	_, h := newHealthyServer(t)

	body, err := json.Marshal(AnswerRequest{Source: "catalog", Query: query4Body, Consistency: "local"})
	if err != nil {
		t.Fatal(err)
	}
	recJSON := post(t, h, "/local", string(body))
	recRaw := post(t, h, "/local", query4Body)
	if recJSON.Code != http.StatusOK {
		t.Fatalf("JSON AnswerRequest: %d (%s)", recJSON.Code, recJSON.Body)
	}
	var a, b AnswerEnvelope
	if err := json.Unmarshal(recJSON.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recRaw.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.Answer.Nodes != b.Answer.Nodes || a.Local.Fully != b.Local.Fully {
		t.Errorf("JSON and raw bodies answered differently: %+v vs %+v", a.Answer, b.Answer)
	}

	// A JSON request naming the budget field runs under that step cap and
	// still succeeds (the cap tightens the solver budget, never errors).
	body, _ = json.Marshal(AnswerRequest{Query: query4Body, Budget: 1})
	rec := post(t, h, "/local", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted request: %d (%s)", rec.Code, rec.Body)
	}
}
