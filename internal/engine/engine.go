// Package engine is the shared evaluation substrate of the solver: a
// bounded worker pool with context-based cancellation.
//
// The paper's decision procedures run single-threaded: the Theorem 3.10
// emptiness test is a pruned backtracking search whose memo reuse across
// branches beats re-deriving branches in parallel (EXPERIMENTS.md E21). The
// pool fans out independent work around them — the facets of one local
// answer, the per-source sub-requests of a completion. The pool is
// deliberately simple (atomic work-stealing counter, one goroutine per
// worker, no queues) so that its overhead stays far below the cost of one
// task.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. The zero value is not usable; construct
// with NewPool. A Pool carries no goroutines while idle — workers are
// spawned per call and torn down when the call returns, so any number of
// concurrent callers can share one Pool without interference.
type Pool struct {
	workers int

	// Utilization counters (atomic).
	tasks    atomic.Uint64 // branches evaluated
	launches atomic.Uint64 // worker goroutines spawned
}

// NewPool returns a pool with the given number of workers; workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

var defaultPool = NewPool(0)

// Default returns the process-wide pool sized to GOMAXPROCS. The webhouse
// fans its local-answer facets and completion sub-requests out on it.
func Default() *Pool { return defaultPool }

// Workers returns the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// Stats is a snapshot of the pool's utilization counters.
type Stats struct {
	Workers  int
	Tasks    uint64 // branches evaluated
	Launches uint64 // worker goroutines spawned
}

// Stats returns a snapshot of the utilization counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:  p.workers,
		Tasks:    p.tasks.Load(),
		Launches: p.launches.Load(),
	}
}

// Each evaluates f(i) for every i in [0, n) across the pool and returns
// when all have completed (a barrier). Unstarted tasks are skipped once ctx
// is cancelled; started tasks always run to completion, so callers that
// never cancel observe every index exactly once.
//
// Each returns nil when every index ran, and the context's error when
// cancellation caused at least one index to be skipped — the signal a
// serving layer needs to distinguish a complete result from one truncated
// by a deadline.
func (p *Pool) Each(ctx context.Context, n int, f func(i int)) error {
	if n <= 0 {
		return nil
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			p.tasks.Add(1)
			f(i)
		}
		return nil
	}
	var next atomic.Int64
	var done atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		p.launches.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || ctx.Err() != nil {
					return
				}
				p.tasks.Add(1)
				f(int(i))
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if done.Load() < int64(n) {
		// Skips only happen under a cancelled context, so Err is non-nil.
		return ctx.Err()
	}
	return nil
}
