package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestEachBarrier(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		const n = 123
		var visited [n]atomic.Int64
		if err := p.Each(context.Background(), n, func(i int) { visited[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: Each = %v", workers, err)
		}
		for i := range visited {
			if visited[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, visited[i].Load())
			}
		}
	}
}

func TestEachReportsCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := p.Each(ctx, 1000, func(i int) { ran.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: Each on cancelled ctx = %v, want context.Canceled", workers, err)
		}
		if ran.Load() > int64(workers) {
			t.Fatalf("workers=%d: cancelled Each still ran %d tasks", workers, ran.Load())
		}
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool(2)
	if err := p.Each(context.Background(), 10, func(int) {}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Workers != 2 || st.Tasks != 10 || st.Launches != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestDefaultPoolFollowsGOMAXPROCS(t *testing.T) {
	if Default().Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(64)
	type key struct{ a, b string }
	k := key{"x", "y"}
	if _, ok := c.Get(3, k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(3, k, 42)
	v, ok := c.Get(3, k)
	if !ok || v.(int) != 42 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
}

func TestCacheBounded(t *testing.T) {
	c := NewCache(128)
	for i := 0; i < 10000; i++ {
		c.Put(uint64(i), i, i)
	}
	// Shards may briefly exceed perShard by the insert that triggered the
	// eviction, never by more.
	if c.Len() > 128+cacheShards {
		t.Fatalf("cache grew to %d entries, bound 128", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1024)
	p := NewPool(8)
	p.Each(context.Background(), 64, func(i int) {
		for j := 0; j < 200; j++ {
			h := uint64(j % 50)
			c.Put(h, j%50, j)
			if v, ok := c.Get(h, j%50); ok {
				_ = v.(int)
			}
		}
	})
}
