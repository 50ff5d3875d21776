package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func post(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func blowupBody(i int) string {
	return fmt.Sprintf("root\n  a {= %d}\n  b {= %d}\n", i, i)
}

const catalogBody = "catalog\n  product\n    name\n    price {< 200}\n    cat {= 1}\n      subcat\n"

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionShedding: with one execution slot and a one-deep queue, a
// stalled handler makes the second request queue and the third shed with
// 429 immediately; the queued request sheds with 503 when its deadline
// expires before a slot frees. Both carry Retry-After.
func TestAdmissionShedding(t *testing.T) {
	s, err := New(Config{Timeout: 700 * time.Millisecond, MaxInflight: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	stall := make(chan struct{})
	entered := make(chan struct{}, 4)
	testHookHandler = func(r *http.Request) {
		if r.URL.Query().Get("stall") != "" {
			entered <- struct{}{}
			<-stall
		}
	}
	defer func() { testHookHandler = nil }()

	// A occupies the only slot and stalls inside the handler.
	aDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { aDone <- post(t, h, "/local?stall=1", catalogBody) }()
	<-entered

	// B queues for the slot.
	bDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { bDone <- post(t, h, "/local", catalogBody) }()
	waitFor(t, "B to queue", func() bool { return s.Stats().Waiting == 1 })

	// C finds the queue full: immediate 429.
	rec := post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// B's deadline expires while still queued: 503.
	recB := <-bDone
	if recB.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued past deadline: %d, want 503 (%s)", recB.Code, recB.Body)
	}
	if recB.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	close(stall)
	<-aDone // A drains; its own status is irrelevant (deadline long gone)

	st := s.Stats()
	if st.ShedQueueFull != 1 || st.ShedWaitTimeout != 1 {
		t.Errorf("shed counters: queueFull=%d waitTimeout=%d, want 1/1", st.ShedQueueFull, st.ShedWaitTimeout)
	}
	if st.RecoveredPanics != 0 {
		t.Errorf("unexpected recovered panics: %d", st.RecoveredPanics)
	}

	// The server recovered: a normal request succeeds.
	rec = post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-overload request: %d (%s)", rec.Code, rec.Body)
	}
}

// TestPanicRecovered: a panicking handler yields a 500, bumps the counter,
// and leaves the server serving (the execution slot is released).
func TestPanicRecovered(t *testing.T) {
	s, err := New(Config{Timeout: time.Second, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	testHookHandler = func(r *http.Request) {
		if r.URL.Query().Get("boom") != "" {
			panic("injected handler fault")
		}
	}
	defer func() { testHookHandler = nil }()

	for i := 0; i < 3; i++ {
		rec := post(t, h, "/local?boom=1", catalogBody)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("panicking handler: %d, want 500", rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "recovered panic") {
			t.Fatalf("500 body does not report the recovery: %s", rec.Body)
		}
	}
	if got := s.Stats().RecoveredPanics; got != 3 {
		t.Errorf("RecoveredPanics = %d, want 3", got)
	}
	// MaxInflight is 1: if the panics leaked their slots this request
	// would queue forever and shed instead of answering.
	rec := post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after panics: %d (%s)", rec.Code, rec.Body)
	}
}

// TestSourceRouting: ?source= selects the repository; unknown names map
// to 404.
func TestSourceRouting(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec := post(t, h, "/explore?source=blowup", blowupBody(1))
	if rec.Code != http.StatusOK {
		t.Fatalf("/explore on blowup source: %d (%s)", rec.Code, rec.Body)
	}
	rec = post(t, h, "/explore", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("/explore default source: %d (%s)", rec.Code, rec.Body)
	}
	rec = post(t, h, "/local?source=nope", catalogBody)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown source: %d, want 404 (%s)", rec.Code, rec.Body)
	}
}

// TestBlowupUnderBudgetIsTimely: after feeding the server an Example 3.2
// refinement chain (whose exact conjunctive representation blows up,
// Theorem 3.6), a local query under a small step budget and a 150ms
// deadline still answers promptly — degraded, shed, or timed out, but
// never pinned.
func TestBlowupUnderBudgetIsTimely(t *testing.T) {
	s, err := New(Config{Timeout: 150 * time.Millisecond, Budget: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 1; i <= 7; i++ {
		rec := post(t, h, "/explore?source=blowup", blowupBody(i))
		if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("explore %d: %d (%s)", i, rec.Code, rec.Body)
		}
	}
	start := time.Now()
	rec := post(t, h, "/local?source=blowup", blowupBody(8))
	elapsed := time.Since(start)
	switch rec.Code {
	case http.StatusOK, http.StatusGatewayTimeout, http.StatusServiceUnavailable:
	default:
		t.Fatalf("budgeted blowup local answer: %d (%s)", rec.Code, rec.Body)
	}
	// Generous epsilon over the 150ms deadline for scheduling noise and the
	// bounded lossy fallback.
	if elapsed > 3*time.Second {
		t.Fatalf("budgeted request pinned for %v on a 150ms deadline", elapsed)
	}
}

// TestExploreOutageServesCertified: while the source is down, /explore
// answers a query its knowledge certifies fully answerable with the exact
// answer q(data(T)), flagged degraded with the source error as its cause,
// and acquires nothing; a query the knowledge does not certify still gets
// the 503.
func TestExploreOutageServesCertified(t *testing.T) {
	s, err := New(Config{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	decode := func(rec *httptest.ResponseRecorder) AnswerEnvelope {
		t.Helper()
		var env AnswerEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("decode %s: %v", rec.Body, err)
		}
		return env
	}
	rec := post(t, h, "/explore", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm-up explore: %d (%s)", rec.Code, rec.Body)
	}
	live := decode(rec)
	g, err := s.Cluster().Owner("catalog")
	if err != nil {
		t.Fatal(err)
	}
	know, err := s.Cluster().Knowledge("catalog")
	if err != nil {
		t.Fatal(err)
	}
	g.Injector("catalog").SetDown(true)
	defer g.Injector("catalog").SetDown(false)

	rec = post(t, h, "/explore", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("certified explore during the outage: %d, want 200 (%s)", rec.Code, rec.Body)
	}
	env := decode(rec)
	if !env.Degraded || !strings.Contains(env.Cause, "unavailable") {
		t.Errorf("outage answer not degraded with its cause: degraded=%v cause=%q", env.Degraded, env.Cause)
	}
	if env.Answer == nil || live.Answer == nil || env.Answer.XML != live.Answer.XML {
		t.Errorf("outage answer %+v, want the live answer %+v", env.Answer, live.Answer)
	}
	if env.Completeness == nil || env.Completeness.Verdict != "full" {
		t.Errorf("outage answer completeness %+v, want full", env.Completeness)
	}
	if got, _ := s.Cluster().Knowledge("catalog"); got != know {
		t.Error("the outage answer changed the knowledge")
	}

	const uncertified = "catalog\n  product\n    name\n    price {>= 200}\n"
	if rec := post(t, h, "/explore", uncertified); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("uncertified explore during the outage: %d, want 503 (%s)", rec.Code, rec.Body)
	}
}
