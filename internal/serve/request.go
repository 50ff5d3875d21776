package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"incxml/internal/budget"
	"incxml/internal/extquery"
	"incxml/internal/query"
)

// AnswerRequest is the request body of the five ps-query answer routes
// (/explore, /local, /complete, /scatter/local, /scatter/complete): a
// client builds one request value regardless of the consistency level it
// asks for.
//
// Bodies are sniffed: a body whose first non-space byte is '{' is decoded
// as strict JSON (unknown fields are a 400, not silently dropped); anything
// else is the raw ps-query text shorthand, with the source taken from
// ?source=.
type AnswerRequest struct {
	// Source names the target source; empty defaults to ?source=, then
	// "catalog". Scatter routes address the whole fleet and reject an
	// explicit source.
	Source string `json:"source,omitempty"`
	// Query is the ps-query text (the same syntax the raw body takes).
	Query string `json:"query"`
	// Budget, when positive, caps this request's solver step budget below
	// the server's configured allowance (it can tighten, never widen; see
	// budget.WithStepCap).
	Budget int64 `json:"budget,omitempty"`
	// Consistency optionally restates the consistency level the route
	// implies ("explore", "local" or "complete"); a mismatch is a 400. It
	// lets a client carry one request value through retry policies that
	// switch routes and fail loudly if the routing wire got crossed.
	Consistency string `json:"consistency,omitempty"`
}

// maxBody bounds an answer request's body; a longer one is a 413.
const maxBody = 1 << 20

// wireRequest is a route's JSON request type: AnswerRequest, ExtRequest or
// ReductionRequest. compile validates a decoded value into the pipeline's
// request; its error is the client's (a 400).
type wireRequest interface {
	compile(req *request, queries *queryCache) error
}

// request is an answer request as decode hands it to a route's execute:
// the envelope route, the resolved source and budget, and the route's
// compiled input.
type request struct {
	route, source, consistency string
	budget                     int64
	query                      query.Query    // ps-query routes
	ext                        extquery.Query // extended-query routes
	kind                       string         // reduction kind: "3sat" or "dnf"
	decide                     func(*budget.B) (budget.Tri, error)
}

func (a *AnswerRequest) compile(req *request, queries *queryCache) error {
	q, err := queries.parse(a.Query)
	if err != nil {
		return fmt.Errorf("bad query: %v", err)
	}
	req.source, req.budget, req.consistency, req.query = a.Source, a.Budget, a.Consistency, q
	return nil
}

// decode is the pipeline's single request decoder: the version check, the
// body limit, strict JSON with a trailing-data check — or the raw ps-query
// text on routes that take it — the query text through the server's parse
// cache, and then the rules every route shares:
// scatter routes reject a source, the others default it from ?source= and
// then "catalog"; budgets are non-negative; a restated consistency level
// must match the route. On failure it returns the status to answer with.
func (rt *route) decode(w http.ResponseWriter, r *http.Request, queries *queryCache) (*request, int, error) {
	if err := apiVersion(r); err != nil {
		return nil, http.StatusBadRequest, err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	var wire wireRequest
	if trimmed := bytes.TrimSpace(body); rt.rawText && (len(trimmed) == 0 || trimmed[0] != '{') {
		wire = &AnswerRequest{Query: string(body)}
	} else {
		wire = rt.body()
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(wire); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
		}
		if dec.More() {
			return nil, http.StatusBadRequest, errors.New("bad request body: trailing data after JSON object")
		}
	}
	req := &request{route: rt.name}
	if err := wire.compile(req, queries); err != nil {
		return nil, http.StatusBadRequest, err
	}
	switch {
	case rt.scatter && req.source != "":
		err = errors.New("scatter routes address every source: drop the source field")
	case req.budget < 0:
		err = errors.New("budget must be non-negative")
	case req.consistency != "" && req.consistency != rt.consistency:
		err = fmt.Errorf("consistency %q does not match route %s (%s)", req.consistency, rt.name, rt.consistency)
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if !rt.scatter && req.source == "" {
		req.source = r.URL.Query().Get("source")
		if req.source == "" {
			req.source = "catalog"
		}
	}
	return req, 0, nil
}

// apiVersion checks the requested answer-envelope version: ?v= wins, then
// the Accept-Version header ("1" or "v1"); absent both, the current
// version. Any other version is an error the pipeline answers with a 400.
func apiVersion(r *http.Request) error {
	raw := r.URL.Query().Get("v")
	if raw == "" {
		raw = strings.TrimPrefix(strings.TrimSpace(r.Header.Get("Accept-Version")), "v")
	}
	if raw != "" && raw != "1" {
		return fmt.Errorf("unknown API version %q (supported: 1)", raw)
	}
	return nil
}

// errorEnvelope is the JSON shape of every failure: request decoding
// (400/413), admission shedding (429/503), execute errors (404/500/503/504)
// and recovered panics (500).
type errorEnvelope struct {
	V      int    `json:"v"`
	Status int    `json:"status"`
	Error  string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on shed responses.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// writeError writes a failure as the error envelope. Any Retry-After
// header must already be set by the caller; retryAfter only mirrors it
// into the body.
func writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already out: an encode failure has nowhere to go.
	_ = json.NewEncoder(w).Encode(errorEnvelope{
		V: EnvelopeVersion, Status: status, Error: msg, RetryAfterSeconds: retryAfter,
	})
}
