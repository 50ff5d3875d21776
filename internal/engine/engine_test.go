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
