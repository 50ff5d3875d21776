package serve

import (
	"sync"

	"incxml/internal/obs"
	"incxml/internal/query"
)

// queryCacheLimit bounds a server's parsed-query cache, which is keyed by
// client input. Like itree.MemoLimit, a full cache stops inserting: lookups
// keep working and a miss is parsed as without the cache, so a flood of
// distinct query texts costs parse time, never unbounded memory.
const queryCacheLimit = 1024

// queryCache maps a request's ps-query text to its parsed query, so each
// distinct text is parsed once per server. The cached query is keyed
// (query.Query.Keyed): every memo below the request reads its canonical key
// without rendering it again. Cached queries are shared by concurrent
// requests and read-only. A text that does not parse is never stored.
type queryCache struct {
	mu sync.RWMutex
	m  map[string]query.Query

	hits, misses *obs.Counter
}

func newQueryCache(reg *obs.Registry) *queryCache {
	outcomes := reg.NewCounterVec("incxml_serve_query_cache_total",
		"Parsed-query cache lookups of the ps-query answer routes, by outcome (hit, miss).",
		"outcome")
	return &queryCache{
		m:      make(map[string]query.Query),
		hits:   outcomes.With("hit"),
		misses: outcomes.With("miss"),
	}
}

// parse returns the keyed query of text: the cached one, or a fresh parse
// that is stored while the cache has room.
func (c *queryCache) parse(text string) (query.Query, error) {
	c.mu.RLock()
	q, ok := c.m[text]
	c.mu.RUnlock()
	if ok {
		c.hits.Inc()
		return q, nil
	}
	c.misses.Inc()
	q, err := query.Parse(text)
	if err != nil {
		return query.Query{}, err
	}
	q = q.Keyed()
	c.mu.Lock()
	if len(c.m) < queryCacheLimit {
		c.m[text] = q
	}
	c.mu.Unlock()
	return q, nil
}
