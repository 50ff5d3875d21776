package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: one per core of the 2-core
// machine the benchmark is sized for, over as many connections.
const clients = 2

// newHTTPClient returns the benchmark's single client, capped at one
// connection per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// target is a running server seen from the benchmark's clients.
type target struct {
	url    string
	client *http.Client
	checks *checker
	// tr, when set, tags every request with an id and records its spans.
	tr *tracer
}

// sample is one timed operation.
type sample struct {
	route    string
	status   int // 0 for a transport error
	degraded bool
	lat      time.Duration
	at       time.Time // completion
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

var degradedKey = []byte(`"degraded":`)

// do sends one request and times it from send to the last body byte. buf is
// the calling client's reusable body buffer.
func (t *target) do(req *request, buf *bytes.Buffer) sample {
	hr, err := http.NewRequest(http.MethodPost, t.url+req.path, bytes.NewReader(req.body))
	if err != nil {
		return sample{route: req.route}
	}
	hr.Header.Set("Content-Type", req.ctype)
	var id uint64
	if t.tr != nil {
		id = t.tr.begin(req)
		hr.Header.Set(idHeader, strconv.FormatUint(id, 10))
	}
	buf.Reset()
	start := time.Now()
	resp, err := t.client.Do(hr)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	s := sample{route: req.route, lat: end.Sub(start), at: end}
	if err != nil {
		return s
	}
	s.status = resp.StatusCode
	if s.ok() {
		// The envelope's top-level degraded flag is its first "degraded" key.
		body := buf.Bytes()
		if i := bytes.Index(body, degradedKey); i >= 0 {
			s.degraded = bytes.HasPrefix(body[i+len(degradedKey):], []byte("true"))
		}
		t.checks.observe(req, body)
	}
	if t.tr != nil {
		t.tr.end(id, start, end, s.status, resp.Header.Get("X-Trace"))
	}
	return s
}

// stop bounds a closed-loop phase: at most limit ops (0 = no limit) and no
// op started once full is set (nil = never).
type stop struct {
	limit int64
	full  *atomic.Bool
}

// runClosed drives the stream with the closed-loop clients until the stop
// condition holds. Whole sessions go to whichever client is free and a
// session's ops run in order. It returns once every op sent completed.
func runClosed(t *target, next func() session, st stop) []sample {
	var (
		mu     sync.Mutex // guards next
		issued atomic.Int64
		wg     sync.WaitGroup
		per    [clients][]sample
	)
	admit := func() bool {
		if st.limit > 0 && issued.Add(1) > st.limit {
			return false
		}
		return st.full == nil || !st.full.Load()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				mu.Lock()
				sess := next()
				mu.Unlock()
				for _, req := range sess {
					if !admit() {
						return
					}
					per[c] = append(per[c], t.do(req, &buf))
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// runSerial sends requests one after the other (set-up acquisition and
// the recovery probe's top-up).
func runSerial(t *target, reqs []*request) []sample {
	var buf bytes.Buffer
	out := make([]sample, len(reqs))
	for i, r := range reqs {
		out[i] = t.do(r, &buf)
	}
	return out
}

// openResult is the open-loop diagnostic: latency measured from each op's
// due time, and how late the generator dispatched sessions.
type openResult struct {
	samples  []sample
	lateness []time.Duration
	elapsed  time.Duration
	sessions int
}

// maxOpenSessions bounds the sessions in flight in the open loop; when it
// is reached the generator falls behind, which shows as lateness.
const maxOpenSessions = 256

// runOpen drives sessions arriving as a Poisson process of rate sessions/s
// (drawn from seed) for d. A session's first op is due at its arrival and
// each later op when the previous one completes; latency counts from the
// due time, so a stalled server is charged for the wait it imposes.
func runOpen(t *target, next func() session, rate float64, seed int64, d time.Duration) openResult {
	rng := rand.New(rand.NewSource(seed))
	var (
		mu  sync.Mutex // guards res.samples
		wg  sync.WaitGroup
		res openResult
		sem = make(chan struct{}, maxOpenSessions)
	)
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		res.lateness = append(res.lateness, time.Since(due))
		res.sessions++
		sess := next()
		wg.Add(1)
		go func(sess session, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			var buf bytes.Buffer
			for _, req := range sess {
				s := t.do(req, &buf)
				now := time.Now()
				s.lat = now.Sub(due)
				due = now
				mu.Lock()
				res.samples = append(res.samples, s)
				mu.Unlock()
			}
		}(sess, due)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// percentile is the q-quantile (0..1) of sorted durations in milliseconds,
// interpolated linearly between closest ranks.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	v := float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
	return v / float64(time.Millisecond)
}

// okLatencies returns the sorted latencies of the 2xx samples whose route
// is in routes (all routes when routes is empty).
func okLatencies(samples []sample, routes ...string) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if !s.ok() {
			continue
		}
		if len(routes) > 0 && !contains(routes, s.route) {
			continue
		}
		out = append(out, s.lat)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
