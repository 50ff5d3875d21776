package mediator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"incxml/internal/engine"
	"incxml/internal/query"
	"incxml/internal/refine"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// executeAllSeq is the serial execution of a completion, the
// differential-testing baseline: ExecuteAll must produce byte-identical
// answers in the same order.
func executeAllSeq(ctx context.Context, ex Executor, ls []LocalQuery) ([]tree.Tree, error) {
	answers := make([]tree.Tree, len(ls))
	for i, lq := range ls {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := ex.AskLocal(ctx, lq)
		if err != nil {
			return nil, fmt.Errorf("mediator: local query %d of %d (%s): %w", i+1, len(ls), lq, err)
		}
		answers[i] = a
	}
	return answers, nil
}

// blockingExec blocks every query except the one anchored at failAt until
// its context is cancelled, and fails the failAt query only after the test
// has seen the siblings in flight. It is the scripted probe for the
// cancel-on-first-hard-failure contract: without the derived
// context.WithCancel inside ExecuteAll the blocked siblings would only be
// released by the caller's context, which this test never cancels.
type blockingExec struct {
	failAt  tree.NodeID
	started chan tree.NodeID // receives the anchor of every blocked sibling
	ready   chan struct{}    // closed by the test to release the failure

	cancelled atomic.Int32 // siblings released by ctx.Done
}

func (e *blockingExec) AskLocal(ctx context.Context, lq LocalQuery) (tree.Tree, error) {
	if lq.At == e.failAt {
		<-e.ready
		return tree.Tree{}, errors.New("hard scatter failure")
	}
	e.started <- lq.At
	<-ctx.Done()
	e.cancelled.Add(1)
	return tree.Tree{}, ctx.Err()
}

// TestExecuteAllCancelsSiblingsOnFailure is the regression test for the
// scatter fan-out's failure path: when one local query fails hard, the
// in-flight siblings must observe cancellation through the derived context
// — the caller's own context stays alive throughout.
func TestExecuteAllCancelsSiblingsOnFailure(t *testing.T) {
	ls := []LocalQuery{
		{At: "fail", Q: query.MustParse("product\n")},
		{At: "blockA", Q: query.MustParse("product\n")},
		{At: "blockB", Q: query.MustParse("product\n")},
	}
	ex := &blockingExec{
		failAt:  "fail",
		started: make(chan tree.NodeID, len(ls)),
		ready:   make(chan struct{}),
	}
	done := make(chan error, 1)
	go func() {
		// A dedicated 3-worker pool guarantees all three queries are in
		// flight at once regardless of GOMAXPROCS.
		_, err := ExecuteAll(context.Background(), engine.NewPool(len(ls)), ex, ls)
		done <- err
	}()
	// Both siblings are blocked inside the executor; now let the first
	// query fail.
	for i := 0; i < 2; i++ {
		<-ex.started
	}
	close(ex.ready)
	err := <-done
	if err == nil {
		t.Fatal("hard failure swallowed")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("local query 1 of %d", len(ls))) {
		t.Errorf("error blames the wrong query: %v", err)
	}
	// ExecuteAll returns only after its barrier, so by now both siblings
	// must have been released by the derived context's cancellation.
	if got := ex.cancelled.Load(); got != 2 {
		t.Errorf("%d siblings observed cancellation, want 2", got)
	}
}

// TestMergeRejectsForeignIDs is the failing-first regression test for the
// cross-shard merge bug: an answer carrying node ids from another document
// used to vanish silently from the merged prefix. Merge sees only its
// inputs, so it must report every input that does not fit the others.
func TestMergeRejectsForeignIDs(t *testing.T) {
	world := catalogWorld()
	base := world.PrefixOn(map[tree.NodeID]bool{"canon": true})

	// An answer from a *different* world (fresh persistent ids throughout)
	// is a second root.
	foreign := tree.Tree{Root: tree.NewID("x0", "catalog", v(0),
		tree.NewID("alien", "product", v(0),
			tree.NewID("alien.price", "price", v(42))))}
	if _, err := Merge(base, foreign); err == nil {
		t.Fatal("foreign answer ids merged silently")
	} else if !strings.Contains(err.Error(), "x0") {
		t.Errorf("error does not name the foreign root: %v", err)
	}

	// A local answer anchored at a node the base does not know is a second
	// root too.
	if _, err := Merge(base, tree.Tree{Root: prod("pentax", 14, 99, 2)}); err == nil {
		t.Fatal("answer anchored outside the base merged silently")
	}

	// A base prefix from a stale generation shares ids with the answers but
	// not their content: canon's price was 99 then and is 120 now, and
	// nikon.price once hung below canon.
	staleBase := tree.Tree{Root: tree.NewID("c0", "catalog", v(0),
		tree.NewID("canon", "product", v(0),
			tree.NewID("canon.price", "price", v(99)),
			tree.NewID("nikon.price", "price", v(199))))}
	for _, tc := range []struct {
		name string
		ans  tree.Tree
		want string
	}{
		{"value", LocalQuery{At: "canon", Q: query.MustParse("product\n  price\n")}.Execute(world), `"canon.price" is price=99`},
		{"parent", world.PrefixOn(map[tree.NodeID]bool{"nikon.price": true}), `"nikon.price" is a child of "nikon" in one input but not`},
	} {
		if _, err := Merge(staleBase, tc.ans); err == nil {
			t.Errorf("%s conflict with a stale base merged silently", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s conflict: error %q does not say %s", tc.name, err, tc.want)
		}
	}

	// Sanity: the same shapes with the world's own ids still merge.
	ans := world.PrefixOn(map[tree.NodeID]bool{"nikon.price": true})
	if _, err := Merge(base, ans); err != nil {
		t.Fatalf("well-formed merge failed: %v", err)
	}
}

// worldExec answers local queries directly from a fixed world.
type worldExec struct{ world tree.Tree }

func (e worldExec) AskLocal(ctx context.Context, lq LocalQuery) (tree.Tree, error) {
	if err := ctx.Err(); err != nil {
		return tree.Tree{}, err
	}
	return lq.Execute(e.world), nil
}

// TestScatterGatherDifferentialSoak pins the concurrent scatter-gather
// ExecuteAll byte-identical — answer order and merged prefix, compared via
// CanonicalWithIDs — to the old sequential execution path over a
// 200-instance random corpus of catalogs, knowledge states, and
// completions.
func TestScatterGatherDifferentialSoak(t *testing.T) {
	instances := 200
	if testing.Short() {
		instances = 40
	}
	for seed := int64(0); seed < int64(instances); seed++ {
		world := workload.RandomCatalog(3+int(seed%9), seed)
		r := refine.NewRefiner(workload.CatalogSigma, workload.CatalogType())
		if _, err := r.ObserveOn(world, workload.Query1(50+(seed*13)%400)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed%2 == 0 {
			if _, err := r.ObserveOn(world, workload.Query2()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		know := r.Reachable()
		q := workload.Query4()
		ls, err := Complete(know, q)
		if err != nil {
			// A corpus draw whose observations matched nothing has no data
			// tree to anchor local queries; skip it.
			continue
		}
		ex := worldExec{world: world}
		seq, err := executeAllSeq(context.Background(), ex, ls)
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		par, err := ExecuteAll(context.Background(), nil, ex, ls)
		if err != nil {
			t.Fatalf("seed %d: scatter: %v", seed, err)
		}
		if len(seq) != len(par) {
			t.Fatalf("seed %d: %d sequential answers vs %d scattered", seed, len(seq), len(par))
		}
		for i := range seq {
			if seq[i].CanonicalWithIDs() != par[i].CanonicalWithIDs() {
				t.Errorf("seed %d: answer %d differs between sequential and scatter execution", seed, i)
			}
		}
		mseq, err := Merge(know.DataTree(), seq...)
		if err != nil {
			t.Fatalf("seed %d: sequential merge: %v", seed, err)
		}
		mpar, err := Merge(know.DataTree(), par...)
		if err != nil {
			t.Fatalf("seed %d: scatter merge: %v", seed, err)
		}
		if mseq.CanonicalWithIDs() != mpar.CanonicalWithIDs() {
			t.Errorf("seed %d: merged prefixes differ between sequential and scatter execution", seed)
		}
		// The union by id is the world's prefix on the inputs' ids, which
		// is how Merge built it when it read the world.
		keep := know.DataTree().IDs()
		for _, a := range seq {
			for id := range a.IDs() {
				keep[id] = true
			}
		}
		if !mseq.Equal(world.PrefixOn(keep)) {
			t.Errorf("seed %d: merged prefix differs from the world's prefix on the same ids", seed)
		}
		if err := mseq.Validate(); err != nil {
			t.Errorf("seed %d: merged prefix: %v", seed, err)
		}
	}
}
