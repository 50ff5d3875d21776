package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"incxml/internal/query"
)

func newCacheServer(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	s, err := New(Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Handler()
}

func (c *queryCache) lookup(text string) (query.Query, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	q, ok := c.m[text]
	return q, ok
}

func (c *queryCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// cacheOutcomes reads the parse cache's hit and miss counters from the
// server's registry.
func cacheOutcomes(s *Server) (hits, misses float64) {
	snap := s.Registry().Snapshot()
	return snap[`incxml_serve_query_cache_total{outcome="hit"}`], snap[`incxml_serve_query_cache_total{outcome="miss"}`]
}

// Each distinct query text is parsed once: the first request misses and
// stores the keyed query, every later one, on any ps-query route, hits.
func TestQueryCacheParsesOnce(t *testing.T) {
	s, h := newCacheServer(t)
	for i, path := range []string{"/local", "/local", "/complete", "/scatter/local"} {
		if rec := post(t, h, path, catalogBody); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", path, rec.Code, rec.Body)
		}
		if hits, misses := cacheOutcomes(s); hits != float64(i) || misses != 1 {
			t.Fatalf("after %d requests: %v hits, %v misses", i+1, hits, misses)
		}
	}
	q, ok := s.queries.lookup(catalogBody)
	if !ok {
		t.Fatal("the query text was not stored")
	}
	if want := query.MustParse(catalogBody).String(); q.String() != want {
		t.Errorf("cached key %q, fresh rendering %q", q.String(), want)
	}
}

// Once the cache holds queryCacheLimit texts, a new text is still served
// but not stored.
func TestQueryCacheBound(t *testing.T) {
	s, h := newCacheServer(t)
	for i := 0; s.queries.size() < queryCacheLimit; i++ {
		if _, err := s.queries.parse(fmt.Sprintf("catalog\n  product\n    price {< %d}\n", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if rec := post(t, h, "/local", catalogBody); rec.Code != http.StatusOK {
			t.Fatalf("/local beyond the bound: %d (%s)", rec.Code, rec.Body)
		}
	}
	if _, ok := s.queries.lookup(catalogBody); ok || s.queries.size() != queryCacheLimit {
		t.Errorf("a text beyond the bound was stored (size %d)", s.queries.size())
	}
	if hits, misses := cacheOutcomes(s); hits != 0 || misses != queryCacheLimit+2 {
		t.Errorf("%v hits, %v misses", hits, misses)
	}
}

// A text that does not parse is answered with the parse error's 400, every
// time, and never stored.
func TestBadQueryNotCached(t *testing.T) {
	s, h := newCacheServer(t)
	const bad = "catalog\n   product\n"
	_, perr := query.Parse(bad)
	if perr == nil {
		t.Fatal("the bad text parses")
	}
	for i := 0; i < 2; i++ {
		rec := post(t, h, "/local", bad)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("bad query: %d (%s)", rec.Code, rec.Body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if want := "bad query: " + perr.Error(); env.Error != want || env.Status != http.StatusBadRequest {
			t.Errorf("error envelope %+v, want error %q", env, want)
		}
	}
	if _, ok := s.queries.lookup(bad); ok || s.queries.size() != 0 {
		t.Error("a bad query was stored")
	}
}

// Concurrent requests share cached queries across routes; run under -race
// this checks that nothing writes to a shared pattern.
func TestQueryCacheConcurrent(t *testing.T) {
	s, h := newCacheServer(t)
	texts := []string{catalogBody, "catalog!\n", "catalog\n  product\n    price {< 300}\n"}
	paths := []string{"/explore", "/local", "/complete", "/scatter/local", "/scatter/complete"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				path, text := paths[(w+i)%len(paths)], texts[(w*7+i)%len(texts)]
				if rec := post(t, h, path, text); rec.Code != http.StatusOK {
					t.Errorf("%s: %d (%s)", path, rec.Code, rec.Body)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.queries.size() != len(texts) {
		t.Errorf("%d texts cached, want %d", s.queries.size(), len(texts))
	}
}

// A memo hit allocates little: a /local hit and a certified /complete at
// most 60 times per request, a /scatter/local hit at most 100, the harness's
// request and recorder included.
func TestHitAllocations(t *testing.T) {
	for _, tc := range []struct {
		path string
		max  float64
	}{{"/local", 60}, {"/complete", 60}, {"/scatter/local", 100}} {
		_, h := newCacheServer(t)
		for _, p := range []string{"/explore", tc.path} {
			if rec := post(t, h, p, catalogBody); rec.Code != http.StatusOK {
				t.Fatalf("warm-up %s: %d (%s)", p, rec.Code, rec.Body)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if rec := post(t, h, tc.path, catalogBody); rec.Code != http.StatusOK {
				t.Fatalf("%s: %d", tc.path, rec.Code)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s hit: %.0f allocs per request, bound %.0f", tc.path, allocs, tc.max)
		}
		t.Logf("%s hit: %.0f allocs per request", tc.path, allocs)
	}
}
