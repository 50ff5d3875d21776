package mediator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/refine"
	"incxml/internal/tree"
)

func v(n int64) rat.Rat { return rat.FromInt(n) }

var catalogSigma = []tree.Label{"catalog", "product", "name", "price", "cat", "subcat", "picture"}

func catalogSource() *dtd.Type {
	return dtd.MustParse(`
root: catalog
catalog -> product+
product -> name price cat picture*
cat     -> subcat
`)
}

func prod(id string, name, price, sub int64, pics ...int64) *tree.Node {
	n := tree.NewID(tree.NodeID(id), "product", v(0),
		tree.NewID(tree.NodeID(id+".name"), "name", v(name)),
		tree.NewID(tree.NodeID(id+".price"), "price", v(price)),
		tree.NewID(tree.NodeID(id+".cat"), "cat", v(1),
			tree.NewID(tree.NodeID(id+".sub"), "subcat", v(sub))))
	for i, p := range pics {
		n.Children = append(n.Children,
			tree.NewID(tree.NodeID(id+".pic")+tree.NodeID(rune('0'+i)), "picture", v(p)))
	}
	return n
}

func catalogWorld() tree.Tree {
	return tree.Tree{Root: tree.NewID("c0", "catalog", v(0),
		prod("canon", 10, 120, 2, 20),
		prod("nikon", 11, 199, 2),
		prod("sony", 12, 175, 3, 99),
		prod("olympus", 13, 250, 2, 21),
	)}
}

// refined returns the reachable incomplete tree after Queries 1 and 2 of
// the running example, observed on the given world.
func refined(t *testing.T, world tree.Tree) *itree.T {
	t.Helper()
	q1 := query.MustParse(`catalog
  product
    name
    price {< 200}
    cat {= 1}
      subcat
`)
	q2 := query.MustParse(`catalog
  product
    name
    cat {= 1}
      subcat {= 2}
    picture!
`)
	r := refine.NewRefiner(catalogSigma, catalogSource())
	if _, err := r.ObserveOn(world, q1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ObserveOn(world, q2); err != nil {
		t.Fatal(err)
	}
	return r.Reachable()
}

// query4 is "list all cameras" (Example 3.4).
func query4() query.Query {
	return query.MustParse(`catalog
  product
    name
    cat {= 1}
      subcat {= 2}
`)
}

func TestCompleteQuery4(t *testing.T) {
	world := catalogWorld()
	it := refined(t, world)
	q4 := query4()
	ls, err := Complete(it, q4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) == 0 {
		t.Fatal("Query 4 is not fully answerable; completion must be nonempty")
	}
	// The completion must be anchored at known nodes.
	td := it.DataTree()
	ids := td.IDs()
	for _, lq := range ls {
		if !ids[lq.At] {
			t.Errorf("local query anchored at unknown node %s", lq.At)
		}
	}
	// Executing the completion on the true world answers Query 4 exactly.
	if !Completes(it, q4, world, ls) {
		t.Error("completion does not complete on the true world")
	}
}

func TestCompleteRetrievesHiddenProducts(t *testing.T) {
	// The crucial case: a world containing an expensive, pictureless camera
	// unseen by Queries 1 and 2. The completion for Query 4 must retrieve it.
	world := catalogWorld()
	it := refined(t, world)
	hiddenWorld := world.Clone()
	hiddenWorld.Root.Children = append(hiddenWorld.Root.Children,
		prod("leica", 17, 999, 2))
	// hiddenWorld must be a possible world.
	if !it.Member(hiddenWorld) {
		t.Fatal("hidden-camera world should be possible")
	}
	q4 := query4()
	ls, err := Complete(it, q4)
	if err != nil {
		t.Fatal(err)
	}
	if !Completes(it, q4, hiddenWorld, ls) {
		var sb strings.Builder
		for _, lq := range ls {
			sb.WriteString(lq.String() + "\n")
		}
		t.Errorf("completion missed the hidden camera; local queries were:\n%s", sb.String())
	}
	// The hidden camera must actually be fetched by some local query.
	found := false
	for _, lq := range ls {
		if lq.Execute(hiddenWorld).Find("leica") != nil {
			found = true
		}
	}
	if !found {
		t.Error("no local query retrieved the hidden camera")
	}
}

func TestCompleteNonRedundant(t *testing.T) {
	world := catalogWorld()
	it := refined(t, world)
	q4 := query4()
	ls, err := Complete(it, q4)
	if err != nil {
		t.Fatal(err)
	}
	// Property (i): answers of distinct local queries do not overlap, on a
	// collection of possible worlds.
	worlds := []tree.Tree{world}
	w2 := world.Clone()
	w2.Root.Children = append(w2.Root.Children, prod("leica", 17, 999, 2))
	worlds = append(worlds, w2)
	for wi, w := range worlds {
		if !it.Member(w) {
			continue
		}
		seen := map[tree.NodeID]int{}
		for qi, lq := range ls {
			ans := lq.Execute(w)
			ans.Walk(func(n *tree.Node) {
				if prev, ok := seen[n.ID]; ok && prev != qi {
					t.Errorf("world %d: node %s returned by local queries %d and %d", wi, n.ID, prev, qi)
				}
				seen[n.ID] = qi
			})
		}
	}
}

func TestCompleteFullyAnswerableNeedsNothing(t *testing.T) {
	world := catalogWorld()
	it := refined(t, world)
	// Query 3 (cheap pictured cameras) is fully answerable: the completion
	// should be empty or contain only queries that cannot add anything.
	q3 := query.MustParse(`catalog
  product
    name
    price {< 100}
    cat {= 1}
      subcat {= 2}
    picture!
`)
	ls, err := Complete(it, q3)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever is generated must be a no-op on every possible world we try.
	if !Completes(it, q3, world, nil) {
		t.Error("query 3 should already be answerable from the data tree")
	}
	_ = ls
}

func TestCompleteNoDataTree(t *testing.T) {
	u := refine.Universal(catalogSigma)
	if _, err := Complete(u, query4()); err == nil {
		t.Error("completion without a data tree should report an error")
	}
}

func TestMerge(t *testing.T) {
	world := catalogWorld()
	base := world.PrefixOn(map[tree.NodeID]bool{"canon": true})
	ansA := world.PrefixOn(map[tree.NodeID]bool{"nikon.price": true})
	// A local answer p@canon is rooted at its anchor, not at the world's
	// root; Merge places it through the base.
	ansB := LocalQuery{At: "canon", Q: query.MustParse("product\n  picture\n")}.Execute(world)
	merged, err := Merge(base, ansA, ansB)
	if err != nil {
		t.Fatal(err)
	}
	ids := merged.IDs()
	for _, want := range []string{"c0", "canon", "nikon", "nikon.price", "canon.pic0"} {
		if !ids[tree.NodeID(want)] {
			t.Errorf("merged prefix missing %s", want)
		}
	}
	if ids["sony"] {
		t.Error("merged prefix contains unrequested node")
	}
}

func TestLocalQueryExecute(t *testing.T) {
	world := catalogWorld()
	lq := LocalQuery{At: "canon", Q: query.MustParse("product\n  price\n")}
	ans := lq.Execute(world)
	if ans.Find("canon.price") == nil {
		t.Errorf("local execution missed price:\n%s", ans)
	}
	missing := LocalQuery{At: "ghost", Q: query.MustParse("product\n")}
	if !missing.Execute(world).IsEmpty() {
		t.Error("execution at missing anchor should be empty")
	}
	if !strings.Contains(lq.String(), "@ canon") {
		t.Errorf("String rendering wrong: %s", lq.String())
	}
}

func TestCompleteBarLeaf(t *testing.T) {
	// A bar query: after observing only the product names, asking for full
	// product subtrees requires fetching everything below the known
	// products — the bar-leaf branch of the completion.
	world := catalogWorld()
	qNames := query.MustParse("catalog\n  product\n    name\n")
	r := refine.NewRefiner(catalogSigma, catalogSource())
	if _, err := r.ObserveOn(world, qNames); err != nil {
		t.Fatal(err)
	}
	know := r.Reachable()
	qBar := query.MustParse("catalog\n  product!\n")
	ls, err := Complete(know, qBar)
	if err != nil {
		t.Fatal(err)
	}
	if !Completes(know, qBar, world, ls) {
		t.Error("bar completion does not complete")
	}
	// The full subtrees (prices, pictures) must be retrieved.
	found := false
	for _, lq := range ls {
		if lq.Execute(world).Find("canon.price") != nil {
			found = true
		}
	}
	if !found {
		t.Error("bar completion did not fetch the unseen product internals")
	}
}

func TestCompleteAfterFullExtraction(t *testing.T) {
	// After extracting entire product subtrees with a bar query, nothing
	// below them is missing: a bar query completion must not descend there.
	world := catalogWorld()
	qAll := query.MustParse("catalog\n  product!\n")
	r := refine.NewRefiner(catalogSigma, catalogSource())
	if _, err := r.ObserveOn(world, qAll); err != nil {
		t.Fatal(err)
	}
	know := r.Reachable()
	ls, err := Complete(know, qAll)
	if err != nil {
		t.Fatal(err)
	}
	// Everything is known: executing whatever remains must not change the
	// answer (trivially true), and no local query may target a product
	// subtree node.
	if !Completes(know, qAll, world, ls) {
		t.Error("completion after full extraction broken")
	}
}

// scriptedExec is a concurrency-safe Executor that answers from a fixed
// world and fails every query anchored at failAt ("" never fails).
type scriptedExec struct {
	world  tree.Tree
	failAt tree.NodeID

	mu    sync.Mutex
	calls int
}

func (e *scriptedExec) AskLocal(ctx context.Context, lq LocalQuery) (tree.Tree, error) {
	if err := ctx.Err(); err != nil {
		return tree.Tree{}, err
	}
	e.mu.Lock()
	e.calls++
	e.mu.Unlock()
	if e.failAt != "" && lq.At == e.failAt {
		return tree.Tree{}, errors.New("boom")
	}
	return lq.Execute(e.world), nil
}

func (e *scriptedExec) Calls() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls
}

func TestExecuteAllOrderAndAbort(t *testing.T) {
	world := catalogWorld()
	ls := []LocalQuery{
		{At: "canon", Q: query.MustParse("product\n  price\n")},
		{At: "nikon", Q: query.MustParse("product\n  name\n")},
		{At: "sony", Q: query.MustParse("product\n  cat\n    subcat\n")},
	}

	// Success: answers come back aligned with their queries even though the
	// fan-out is concurrent.
	ex := &scriptedExec{world: world}
	answers, err := ExecuteAll(context.Background(), nil, ex, ls)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(ls) {
		t.Fatalf("got %d answers for %d queries", len(answers), len(ls))
	}
	for i, a := range answers {
		if !a.Equal(ls[i].Execute(world)) {
			t.Errorf("answer %d misaligned with its local query", i)
		}
	}

	// Failure: the scatter aborts (a partial answer set cannot complete the
	// representation) and the error identifies the query that failed — never
	// a sibling that merely observed the cancellation.
	ex = &scriptedExec{world: world, failAt: "nikon"}
	if _, err := ExecuteAll(context.Background(), nil, ex, ls); err == nil {
		t.Fatal("failure swallowed")
	} else if !strings.Contains(err.Error(), fmt.Sprintf("local query 2 of %d", len(ls))) {
		t.Errorf("error does not identify the failing query: %v", err)
	}

	// Cancelled context surfaces before any execution.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex = &scriptedExec{world: world}
	if _, err := ExecuteAll(ctx, nil, ex, ls); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v", err)
	}
	if got := ex.Calls(); got != 0 {
		t.Errorf("executor ran %d queries under a cancelled context", got)
	}
}
