// Package mediator implements the guiding-mediators machinery of
// Section 3.4: when a query cannot be fully answered from the incomplete
// tree, a set of *local* ps-queries p@n — each anchored at a node n of the
// data tree T_d — is generated that completes the representation relative to
// the query (Theorem 3.19). The generated completion is non-redundant:
// answers of distinct local queries do not overlap, and no local query is
// certainly empty.
package mediator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"incxml/internal/answer"
	"incxml/internal/ctype"
	"incxml/internal/engine"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// LocalQuery is an expression p@n: the ps-query p posed against the subtree
// of the full input rooted at the known node n.
type LocalQuery struct {
	At tree.NodeID
	Q  query.Query
}

// String renders the local query as "p @ n".
func (lq LocalQuery) String() string {
	return strings.TrimRight(lq.Q.String(), "\n") + " @ " + string(lq.At)
}

// Execute evaluates the local query against the full document: the answer
// of p on the subtree rooted at n (empty if n does not exist).
func (lq LocalQuery) Execute(doc tree.Tree) tree.Tree {
	n := doc.Find(lq.At)
	if n == nil {
		return tree.Empty()
	}
	return lq.Q.Eval(tree.Tree{Root: n})
}

// Complete computes a non-redundant set of local queries that completes the
// reachable incomplete tree relative to q (Theorem 3.19): for every world
// T ∈ rep(T), evaluating the local queries on T and adjoining their answers
// to the data tree yields enough information to answer q exactly.
func Complete(it *itree.T, q query.Query) ([]LocalQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	w := it.TrimUseless()
	td := w.DataTree()
	if td.Root == nil {
		// Nothing known yet: the trivial completion asks q at the (virtual)
		// root; with no data tree there is no anchor, so the caller should
		// pose q against the source directly.
		return nil, fmt.Errorf("mediator: no data tree to anchor local queries (pose the query to the source)")
	}
	poss, _ := answer.MatchSets(w, q)

	// Symbols targeting each data node.
	symsOf := map[tree.NodeID][]ctype.Symbol{}
	for _, s := range w.Type.Symbols() {
		if tg := w.Type.TargetFor(s); tg.IsNode() {
			symsOf[tg.Node] = append(symsOf[tg.Node], s)
		}
	}
	for _, ss := range symsOf {
		sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
	}

	var out []LocalQuery

	// missingPossible reports whether, under data node n, part of the answer
	// to the child pattern mc (at childPath) can come from missing (non-data)
	// information: some atom of some symbol of n contains a non-node item
	// whose symbol possibly matches p_mc.
	missingPossible := func(n tree.NodeID, childPath string) bool {
		for _, s := range symsOf[n] {
			for _, a := range w.Type.DisjFor(s) {
				for _, item := range a {
					if w.Type.TargetFor(item.Sym).IsNode() {
						continue
					}
					if poss[answer.PathKey{Sym: item.Sym, Path: childPath}] {
						return true
					}
				}
			}
		}
		return false
	}

	// dataChildren lists the data children of n whose node symbol possibly
	// matches the child pattern.
	children := w.DataNodeChildren()
	dataChildrenMatching := func(n tree.NodeID, childPath string) []tree.NodeID {
		var out []tree.NodeID
		for _, c := range children[n] {
			for _, s := range symsOf[c] {
				if poss[answer.PathKey{Sym: s, Path: childPath}] {
					out = append(out, c)
					break
				}
			}
		}
		return out
	}

	var descend func(p *query.Node, path string, n tree.NodeID)
	descend = func(p *query.Node, path string, n tree.NodeID) {
		if len(p.Children) == 0 {
			if p.Extract && missingBelow(w, n) {
				// A bar leaf wants the whole subtree; if anything below n is
				// still unknown, fetch it.
				out = append(out, LocalQuery{At: n, Q: query.Query{Root: &query.Node{Label: p.Label, Cond: p.Cond, Extract: true}}})
			}
			return
		}
		// Partition the child patterns: C = those that may be fed by missing
		// information directly under n.
		var cKeep []*query.Node
		type rec struct {
			child *query.Node
			path  string
		}
		var recurse []rec
		for i, mc := range p.Children {
			cp := fmt.Sprintf("%s/%d", path, i)
			if missingPossible(n, cp) {
				cKeep = append(cKeep, mc)
			} else {
				recurse = append(recurse, rec{mc, cp})
			}
		}
		if len(cKeep) > 0 {
			out = append(out, LocalQuery{At: n, Q: query.Query{Root: &query.Node{Label: p.Label, Cond: p.Cond, Children: cKeep}}})
		}
		for _, r := range recurse {
			for _, ni := range dataChildrenMatching(n, r.path) {
				descend(r.child, r.path, ni)
			}
		}
	}
	descend(q.Root, "0", td.Root.ID)
	return out, nil
}

// missingBelow reports whether any non-data information is reachable below
// the symbols of data node n.
func missingBelow(w *itree.T, n tree.NodeID) bool {
	seen := map[ctype.Symbol]bool{}
	var stack []ctype.Symbol
	for _, s := range w.Type.Symbols() {
		if tg := w.Type.TargetFor(s); tg.IsNode() && tg.Node == n {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		for _, a := range w.Type.DisjFor(s) {
			for _, item := range a {
				if !w.Type.TargetFor(item.Sym).IsNode() {
					return true
				}
				stack = append(stack, item.Sym)
			}
		}
	}
	return false
}

// Executor executes local queries against a (possibly remote, possibly
// unreliable) source under a context. faulty.SourceClient satisfies it;
// retry and circuit-breaking policy live in the executor, not here.
type Executor interface {
	AskLocal(ctx context.Context, lq LocalQuery) (tree.Tree, error)
}

// ExecuteAll runs every local query of a Theorem 3.19 completion through
// the executor as a scatter plan: the queries are independent by
// non-redundancy, so they are fanned out across the worker pool p (nil
// selects the default pool) with bounded concurrency, preserving order
// (answers[i] answers ls[i]). The executor must be safe for concurrent use —
// every SourceClient is. The completion is only useful whole — a partial
// answer set does not complete the representation — so the first hard
// failure (after whatever retries the executor performs) cancels the
// in-flight siblings' contexts and is returned; the caller then degrades to
// a local approximation.
func ExecuteAll(ctx context.Context, p *engine.Pool, ex Executor, ls []LocalQuery) ([]tree.Tree, error) {
	if p == nil {
		p = engine.Default()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// sctx is the shared scatter context: the first hard failure cancels it,
	// so in-flight siblings stop retrying a plan that can no longer complete.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	answers := make([]tree.Tree, len(ls))
	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	p.Each(sctx, len(ls), func(i int) {
		a, err := ex.AskLocal(sctx, ls[i])
		if err != nil {
			// A sibling that merely observed our own cancellation is an echo
			// of the root failure, not a failure of its own: the recording
			// happens before cancel below, so sctx being dead while the
			// caller's ctx is alive implies firstErr is already set.
			if errors.Is(err, context.Canceled) && ctx.Err() == nil && sctx.Err() != nil {
				return
			}
			mu.Lock()
			if firstErr == nil {
				firstErr, firstIdx = err, i
			}
			mu.Unlock()
			cancel()
			return
		}
		answers[i] = a
	})
	mu.Lock()
	err, idx := firstErr, firstIdx
	mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("mediator: local query %d of %d (%s): %w", idx+1, len(ls), ls[idx], err)
	}
	if err := ctx.Err(); err != nil {
		// Cancelled externally: Each may have skipped queries without any
		// executor reporting it.
		return nil, err
	}
	return answers, nil
}

// Merge adjoins the answers of executed local queries to a base prefix of
// the document, from the inputs alone: Theorem 3.19's mediator knows only
// the data tree and the answers to its local queries. The result is the
// union of the inputs by persistent id. The base is a prefix of the
// document, and each answer to p@n is rooted at its anchor n, a node of the
// base or of an earlier answer, so the union is again a prefix. A node id
// seen twice must agree on label and value (the check of refine.Compatible)
// and on its parent. A disagreement, or an answer rooted at a node no
// earlier input holds, means the inputs do not share one document
// generation's persistent ids; merging them would corrupt the completion,
// so Merge reports an error instead. The result shares no node with the
// inputs.
func Merge(base tree.Tree, answers ...tree.Tree) (tree.Tree, error) {
	// place is one id of the union: the merged node, whose children grow as
	// the inputs add them, and its parent (nil for the root).
	type place struct {
		node   tree.Node
		parent *place
	}
	inputs := append([]tree.Tree{base}, answers...)
	size := 0
	for _, t := range inputs {
		size += t.Size()
	}
	// places never outgrows its capacity, so pointers into it stay valid.
	places := make([]place, 0, size)
	at := make(map[tree.NodeID]*place, size)
	var add func(n *tree.Node, parent *place) error
	add = func(n *tree.Node, parent *place) error {
		p := at[n.ID]
		switch {
		case p == nil:
			kids := make([]*tree.Node, 0, len(n.Children))
			places = append(places, place{node: tree.Node{ID: n.ID, Label: n.Label, Value: n.Value, Children: kids}, parent: parent})
			p = &places[len(places)-1]
			at[n.ID] = p
			if parent != nil {
				parent.node.Children = append(parent.node.Children, &p.node)
			}
		case p.node.Label != n.Label || !p.node.Value.Equal(n.Value):
			return fmt.Errorf("node %q is %s=%s in one input and %s=%s in another", n.ID, p.node.Label, p.node.Value, n.Label, n.Value)
		case parent != nil && p.parent != parent:
			return fmt.Errorf("node %q is a child of %q in one input but not in another", n.ID, parent.node.ID)
		}
		for _, c := range n.Children {
			if err := add(c, p); err != nil {
				return err
			}
		}
		return nil
	}
	for i, t := range inputs {
		switch {
		case t.Root == nil:
			continue
		case len(places) > 0 && at[t.Root.ID] == nil:
			return tree.Tree{}, fmt.Errorf("mediator: merge: answer %d is rooted at %q, which no earlier input holds", i-1, t.Root.ID)
		}
		if err := add(t.Root, nil); err != nil {
			return tree.Tree{}, fmt.Errorf("mediator: merge: input %d: %w", i, err)
		}
	}
	if len(places) == 0 {
		return tree.Tree{}, nil
	}
	return tree.Tree{Root: &places[0].node}, nil
}

// Completes verifies the completion property on a concrete world: answering
// q on the data tree extended with the local answers coincides with
// answering q on the world. Used by tests.
func Completes(it *itree.T, q query.Query, world tree.Tree, ls []LocalQuery) bool {
	td := it.DataTree()
	answers := make([]tree.Tree, len(ls))
	for i, lq := range ls {
		answers[i] = lq.Execute(world)
	}
	merged, err := Merge(td, answers...)
	if err != nil {
		return false
	}
	return q.Eval(merged).Equal(q.Eval(world))
}
