package refine

import (
	"errors"
	"sync/atomic"

	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// Universal returns the incomplete tree representing every data tree over
// the given alphabet: one symbol per label, any root, all⋆ children. This is
// the starting point of the Refine chain before any query has been asked.
func Universal(sigma []tree.Label) *itree.T {
	out := itree.New()
	ty := out.Type
	all := make(ctype.SAtom, 0, len(sigma))
	for _, l := range sigma {
		all = append(all, ctype.SItem{Sym: anySym(l), Mult: dtd.Star})
	}
	for _, l := range sigma {
		s := anySym(l)
		ty.Sigma[s] = ctype.LabelTarget(l)
		ty.Mu[s] = ctype.Disj{all.Clone()}
		ty.Roots = append(ty.Roots, s)
	}
	return out
}

// Refine performs one step of Algorithm Refine (Theorem 3.4): given the
// current incomplete tree and a ps-query with its answer, it returns an
// unambiguous incomplete tree representing rep(t) ∩ q⁻¹(A). It is
// RefineBudgeted with a nil budget.
func Refine(t *itree.T, q query.Query, a tree.Tree, sigma []tree.Label) (*itree.T, error) {
	return RefineBudgeted(t, q, a, sigma, nil)
}

// Refiner incrementally maintains an incomplete tree over a sequence of
// ps-query/answer pairs against one source document.
type Refiner struct {
	sigma  []tree.Label
	source *dtd.Type
	cur    *itree.T
	steps  int
	// lossy records that some observation went through the lossy-shrinking
	// fallback (ObserveBudgeted): cur is then a rep-superset of the true
	// refinement.
	lossy bool
	// reach memoizes Reachable for the current cur. It is filled lazily by
	// the first reader and cleared where ObserveBudgeted assigns cur, the
	// only place cur changes.
	reach atomic.Pointer[itree.T]
}

// NewRefiner starts a refinement chain. The source type may be nil if the
// source's DTD is unknown.
func NewRefiner(sigma []tree.Label, source *dtd.Type) *Refiner {
	return &Refiner{
		sigma:  append([]tree.Label(nil), sigma...),
		source: source,
		cur:    Universal(sigma),
	}
}

// ErrInconsistent reports that an observation contradicts the accumulated
// knowledge: no document satisfies all query-answer pairs (and the type)
// any more. This happens when the source changed between queries; the
// paper's remedy is to reinitialize the knowledge to the source type
// (Section 1), which the webhouse layer does on this error.
var ErrInconsistent = errors.New("refine: observation inconsistent with accumulated knowledge (source changed?)")

// Observe folds one ps-query/answer pair into the representation
// (one step of Algorithm Refine). It returns ErrInconsistent (wrapped) when
// the refined representation becomes empty; the previous state is kept so
// the caller can decide how to recover. It is ObserveBudgeted with a nil
// budget, which never takes the lossy fallback.
func (r *Refiner) Observe(q query.Query, a tree.Tree) error {
	_, err := r.ObserveBudgeted(q, a, nil)
	return err
}

// Tree returns the current incomplete tree (query information only, not yet
// intersected with the source type).
func (r *Refiner) Tree() *itree.T { return r.cur }

// Reachable returns the paper's "reachable" incomplete tree: the current
// refinement further intersected with the source tree type (Theorem 3.5).
// If no source type is known, it returns the current tree unchanged.
//
// The tree is computed once per refiner state and memoized until the next
// observation, so every caller between two observations gets the same
// shared tree: treat it as read-only (mutate a Clone). Concurrent readers
// are safe while no observation runs. Two first readers may both compute
// the tree, but only the first one stored is ever returned: the values
// memoized on the snapshot (itree.T.Remember) would be split over two
// pointers otherwise.
func (r *Refiner) Reachable() *itree.T {
	if r.source == nil {
		return r.cur
	}
	if t := r.reach.Load(); t != nil {
		return t
	}
	t := Compact(WithTreeType(r.cur, r.source))
	if !r.reach.CompareAndSwap(nil, t) {
		return r.reach.Load()
	}
	return t
}

// Steps returns the number of observations folded so far.
func (r *Refiner) Steps() int { return r.steps }

// Sigma returns the alphabet of the chain.
func (r *Refiner) Sigma() []tree.Label { return r.sigma }

// ObserveOn is a convenience that evaluates q on the full source document
// and observes the resulting answer; used by simulations where the true
// document is available.
func (r *Refiner) ObserveOn(doc tree.Tree, q query.Query) (tree.Tree, error) {
	a := q.Eval(doc)
	if err := r.Observe(q, a); err != nil {
		return tree.Tree{}, err
	}
	return a, nil
}
