package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// query4Body is Example 3.4 ("list all cameras") — not fully answerable
// after a Query-1 warm-up, so /complete and the scatter routes must run a
// genuine Theorem 3.19 completion against the sources.
const query4Body = "catalog\n  product\n    name\n    cat {= 1}\n      subcat {= 2}\n"

// scatterCert pins the completeness section of the v1 envelope.
type scatterCert struct {
	Ratio     float64            `json:"ratio"`
	Verdict   string             `json:"verdict"`
	PerSource map[string]float64 `json:"perSource"`
}

type scatterResponse struct {
	V            int          `json:"v"`
	Degraded     bool         `json:"degraded"`
	Completeness *scatterCert `json:"completeness"`
	Scatter      struct {
		Shards         int   `json:"shards"`
		CompleteShards []int `json:"completeShards"`
		DegradedShards []int `json:"degradedShards"`
		Answers        []struct {
			Source   string `json:"source"`
			Shard    int    `json:"shard"`
			Degraded bool   `json:"degraded"`
			Error    string `json:"error"`
			Cause    string `json:"cause"`
			Answer   *struct {
				Nodes int `json:"nodes"`
			} `json:"answer"`
			Completeness *scatterCert `json:"completeness"`
		} `json:"answers"`
	} `json:"scatter"`
}

// newShardedServer builds a 4-shard server with enough extra catalog
// sources that several shards are populated, and warms every catalog-typed
// source with Query 1.
func newShardedServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Shards: 4, ExtraSources: 8, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, name := range s.Cluster().Sources() {
		if name == "blowup" {
			continue
		}
		rec := post(t, h, "/explore?source="+name, catalogBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("warm %s: %d (%s)", name, rec.Code, rec.Body)
		}
	}
	return s
}

// TestScatterCompleteOneShardDown is the acceptance scenario: a 4-shard
// server with one shard 100%% down must answer POST /scatter/complete with
// 200 — flagged per-shard-degraded answers for the down shard's sources,
// exact answers for everyone else — and POST /complete routed at a downed
// source must likewise return a flagged degraded 200, never an error.
func TestScatterCompleteOneShardDown(t *testing.T) {
	s := newShardedServer(t)
	h := s.Handler()

	// Down the shard with the most catalog-typed sources: "blowup" answers
	// the catalog-shaped query exactly (certainly empty on its type, no
	// source contact) even during an outage, so it can never witness the
	// degradation this test is about.
	catalogSources := func(g interface{ Sources() []string }) (n int) {
		for _, name := range g.Sources() {
			if name != "blowup" {
				n++
			}
		}
		return n
	}
	var down int
	for i, g := range s.Cluster().Groups() {
		if catalogSources(g) > catalogSources(s.Cluster().Group(down)) {
			down = i
		}
	}
	downG := s.Cluster().Group(down)
	if catalogSources(downG) == 0 {
		t.Fatal("picked a shard without catalog sources")
	}
	downG.SetDown(true)
	defer downG.SetDown(false)

	rec := post(t, h, "/scatter/complete", query4Body)
	if rec.Code != http.StatusOK {
		t.Fatalf("scatter with a down shard: %d, want 200 (%s)", rec.Code, rec.Body)
	}
	var resp scatterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scatter.Shards != 4 {
		t.Errorf("shards = %d, want 4", resp.Scatter.Shards)
	}
	if !resp.Degraded || len(resp.Scatter.DegradedShards) != 1 || resp.Scatter.DegradedShards[0] != down {
		t.Errorf("degradedShards = %v (degraded=%v), want [%d]", resp.Scatter.DegradedShards, resp.Degraded, down)
	}
	if len(resp.Scatter.Answers) != len(s.Cluster().Sources()) {
		t.Errorf("%d answers for %d sources", len(resp.Scatter.Answers), len(s.Cluster().Sources()))
	}
	for _, a := range resp.Scatter.Answers {
		if a.Error != "" {
			t.Errorf("%s: hard error in a degradable scatter: %s", a.Source, a.Error)
		}
		if a.Completeness == nil {
			t.Errorf("%s: scatter answer without a completeness certificate", a.Source)
		}
		if a.Shard == down && a.Source != "blowup" {
			if !a.Degraded {
				t.Errorf("%s on the down shard not flagged degraded", a.Source)
			}
			if a.Cause == "" {
				t.Errorf("%s degraded without a cause", a.Source)
			}
		} else if a.Shard != down && a.Degraded {
			t.Errorf("%s degraded on a healthy shard", a.Source)
		}
	}
	// The scatter-wide certificate intersects the per-source ones: the down
	// shard's sources answered from knowledge alone and cannot certify the
	// whole of query 4, so the merged ratio must fall below 1, every source
	// must appear in the per-source breakdown, and the healthy sources'
	// exact completions must still be certified full.
	if resp.Completeness == nil {
		t.Fatal("scatter answer without a scatter-wide certificate")
	}
	if resp.Completeness.Ratio >= 1 {
		t.Errorf("one shard down but scatter-wide completeness ratio = %v", resp.Completeness.Ratio)
	}
	if len(resp.Completeness.PerSource) != len(s.Cluster().Sources()) {
		t.Errorf("perSource covers %d of %d sources", len(resp.Completeness.PerSource), len(s.Cluster().Sources()))
	}
	for _, a := range resp.Scatter.Answers {
		if a.Shard != down && a.Completeness != nil && a.Completeness.Verdict != "full" {
			t.Errorf("%s: healthy exact completion certified %q, want full", a.Source, a.Completeness.Verdict)
		}
	}

	// Routed /complete on a downed source: flagged 200, not an error.
	var name string
	for _, src := range downG.Sources() {
		if src != "blowup" {
			name = src
			break
		}
	}
	rec = post(t, h, "/complete?source="+name, query4Body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/complete on a downed source: %d, want 200 (%s)", rec.Code, rec.Body)
	}
	var one struct {
		Degraded bool   `json:"degraded"`
		Cause    string `json:"cause"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if !one.Degraded || one.Cause == "" {
		t.Errorf("downed /complete not flagged: %+v", one)
	}
	// And a healthy source still answers exactly.
	for _, other := range s.Cluster().Sources() {
		g, _ := s.Cluster().Owner(other)
		if g.ID() == down || other == "blowup" {
			continue
		}
		rec = post(t, h, "/complete?source="+other, query4Body)
		if rec.Code != http.StatusOK {
			t.Fatalf("/complete on healthy %s: %d (%s)", other, rec.Code, rec.Body)
		}
		break
	}
}

func TestScatterLocalRoute(t *testing.T) {
	s := newShardedServer(t)
	h := s.Handler()
	rec := post(t, h, "/scatter/local", query4Body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/scatter/local: %d (%s)", rec.Code, rec.Body)
	}
	var resp scatterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scatter.Answers) != len(s.Cluster().Sources()) {
		t.Errorf("%d answers for %d sources", len(resp.Scatter.Answers), len(s.Cluster().Sources()))
	}
	for i, a := range resp.Scatter.Answers {
		if i > 0 && resp.Scatter.Answers[i-1].Source >= a.Source {
			t.Errorf("answers not sorted by source at %d", i)
		}
	}
	if resp.Completeness == nil || resp.Completeness.Verdict == "" {
		t.Error("scatter-local answer without a scatter-wide certificate")
	}
	// Scatter traffic shows up in the per-shard metric families.
	snap := s.Registry().Snapshot()
	if snap["incxml_shard_scatters_total"] < 1 {
		t.Errorf("incxml_shard_scatters_total = %v", snap["incxml_shard_scatters_total"])
	}
}

// TestAdmitSlotSurvivesPostAdmitPanic is the queue-slot-leak regression
// test: a panic in the window after admission succeeded but before the
// handler's own defer ran used to leak the execution slot — the recover
// middleware turned the panic into a 500 but nothing ever released the
// semaphore, so MaxInflight shrank by one per panic until the server
// wedged. With MaxInflight=1 a single leak is fatal to the next request.
func TestAdmitSlotSurvivesPostAdmitPanic(t *testing.T) {
	s, err := New(Config{Timeout: 500 * time.Millisecond, MaxInflight: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	fired := false
	testHookPostAdmit = func() {
		if !fired {
			fired = true
			panic("post-admit boom")
		}
	}
	defer func() { testHookPostAdmit = nil }()

	rec := post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: %d, want 500 (%s)", rec.Code, rec.Body)
	}
	if got := s.Stats().RecoveredPanics; got != 1 {
		t.Errorf("RecoveredPanics = %d, want 1", got)
	}
	if got := s.Stats().Inflight; got != 0 {
		t.Fatalf("execution slot leaked: inflight = %d after the panic", got)
	}
	// The single slot must be free again: a normal request succeeds well
	// within the deadline instead of queueing to death.
	rec = post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after the panic: %d, want 200 (%s)", rec.Code, rec.Body)
	}
}

// TestRetryAfterRoundsUp: shed responses must round the Retry-After hint
// UP to whole seconds — a 1.5s-timeout server used to advertise "1",
// inviting clients back while the requests that shed them could still hold
// their slots for another half second.
func TestRetryAfterRoundsUp(t *testing.T) {
	s, err := New(Config{Timeout: 1500 * time.Millisecond, MaxInflight: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	stall := make(chan struct{})
	entered := make(chan struct{}, 1)
	testHookHandler = func(r *http.Request) {
		if r.URL.Query().Get("stall") != "" {
			entered <- struct{}{}
			<-stall
		}
	}
	aDone := make(chan struct{})
	bDone := make(chan struct{})
	defer func() {
		// Join the in-flight requests before clearing the hook: a leaked
		// goroutine would race the next test's hook installation.
		close(stall)
		<-aDone
		<-bDone
		testHookHandler = nil
	}()

	go func() { defer close(aDone); post(t, h, "/local?stall=1", catalogBody) }()
	<-entered
	// B queues; C overflows the queue and is shed with 429.
	go func() { defer close(bDone); post(t, h, "/local", catalogBody) }()
	waitFor(t, "B to queue", func() bool { return s.Stats().Waiting == 1 })
	rec := post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q for a 1.5s timeout, want \"2\" (rounded up)", got)
	}
}
