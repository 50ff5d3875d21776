// Package cond implements the conditions attached to query nodes and type
// symbols: Boolean combinations of comparisons of a data value with rational
// constants (= v, != v, <= v, >= v, < v, > v).
//
// Per Lemma 2.3, every condition is equivalent to a union of intervals that
// is linear in the size of the condition; this package compiles conditions to
// that normal form eagerly (interval.Set), making satisfiability a constant
// lookup and equivalence a structural comparison. Conditions are immutable
// values.
package cond

import (
	"incxml/internal/interval"
	"incxml/internal/rat"
)

// Cond is a condition on a single data value, held in interval normal form.
// The zero value is the condition "true" (no constraint).
type Cond struct {
	set  interval.Set
	full bool // distinguishes the zero value (true) from an explicit empty set
	init bool
}

// True is the vacuous condition satisfied by every value.
func True() Cond { return Cond{set: interval.Full(), init: true} }

// False is the unsatisfiable condition.
func False() Cond { return Cond{set: interval.Empty(), init: true} }

// FromSet wraps an interval set as a condition.
func FromSet(s interval.Set) Cond { return Cond{set: s, init: true} }

// Eq returns the condition "= v".
func Eq(v rat.Rat) Cond { return FromSet(interval.Of(interval.Point(v))) }

// Ne returns the condition "!= v".
func Ne(v rat.Rat) Cond { return Eq(v).Not() }

// Lt returns the condition "< v".
func Lt(v rat.Rat) Cond {
	return FromSet(interval.Of(interval.Interval{Lo: interval.NegInf(), Hi: interval.At(v, false)}))
}

// Le returns the condition "<= v".
func Le(v rat.Rat) Cond {
	return FromSet(interval.Of(interval.Interval{Lo: interval.NegInf(), Hi: interval.At(v, true)}))
}

// Gt returns the condition "> v".
func Gt(v rat.Rat) Cond {
	return FromSet(interval.Of(interval.Interval{Lo: interval.At(v, false), Hi: interval.PosInf()}))
}

// Ge returns the condition ">= v".
func Ge(v rat.Rat) Cond {
	return FromSet(interval.Of(interval.Interval{Lo: interval.At(v, true), Hi: interval.PosInf()}))
}

// EqInt, and the *Int variants below, are integer-literal conveniences.
func EqInt(n int64) Cond { return Eq(rat.FromInt(n)) }

// NeInt returns "!= n" for an integer literal.
func NeInt(n int64) Cond { return Ne(rat.FromInt(n)) }

// LtInt returns "< n" for an integer literal.
func LtInt(n int64) Cond { return Lt(rat.FromInt(n)) }

// LeInt returns "<= n" for an integer literal.
func LeInt(n int64) Cond { return Le(rat.FromInt(n)) }

// GtInt returns "> n" for an integer literal.
func GtInt(n int64) Cond { return Gt(rat.FromInt(n)) }

// GeInt returns ">= n" for an integer literal.
func GeInt(n int64) Cond { return Ge(rat.FromInt(n)) }

// Set returns the interval normal form.
func (c Cond) Set() interval.Set {
	if !c.init {
		return interval.Full()
	}
	return c.set
}

// And returns the conjunction of c and d.
func (c Cond) And(d Cond) Cond { return FromSet(c.Set().Intersect(d.Set())) }

// Or returns the disjunction of c and d.
func (c Cond) Or(d Cond) Cond { return FromSet(c.Set().Union(d.Set())) }

// Not returns the negation of c.
func (c Cond) Not() Cond { return FromSet(c.Set().Complement()) }

// Minus returns c ∧ ¬d.
func (c Cond) Minus(d Cond) Cond { return FromSet(c.Set().Minus(d.Set())) }

// Holds reports whether the value v satisfies the condition (v |= c).
func (c Cond) Holds(v rat.Rat) bool { return c.Set().Contains(v) }

// Satisfiable reports whether some value satisfies c (PTIME per Lemma 2.3 —
// here O(1) thanks to eager normalization).
func (c Cond) Satisfiable() bool { return !c.Set().IsEmpty() }

// IsTrue reports whether c is satisfied by every value.
func (c Cond) IsTrue() bool { return c.Set().IsFull() }

// Equal reports whether c and d are logically equivalent.
func (c Cond) Equal(d Cond) bool { return c.Set().Equal(d.Set()) }

// Implies reports whether every value satisfying c satisfies d.
func (c Cond) Implies(d Cond) bool { return c.Set().Subset(d.Set()) }

// Disjoint reports whether c ∧ d is unsatisfiable — the mutual-exclusion
// test of Definition 3.1(2).
func (c Cond) Disjoint(d Cond) bool { return c.Set().Disjoint(d.Set()) }

// Witness returns some value satisfying c, or false if unsatisfiable.
func (c Cond) Witness() (rat.Rat, bool) { return c.Set().Witness() }

// Witnesses returns a value from every interval of the normal form; as in
// Lemma 2.3 these cover all equivalence classes of c.
func (c Cond) Witnesses() []rat.Rat { return c.Set().Witnesses() }

// AsPoint reports whether c is "= v" for a single v (the notation
// cond(a) = v in the proof of Theorem 2.8).
func (c Cond) AsPoint() (rat.Rat, bool) { return c.Set().AsPoint() }

// Size returns the number of intervals in the normal form — the paper's
// measure of condition size after Lemma 2.3 normalization.
func (c Cond) Size() int { return c.Set().Size() }

// Partition returns conditions splitting Q into the coarsest intervals on
// which every condition in cs is constant (the construction in the proof of
// Lemma 3.12). The returned conditions are pairwise disjoint, jointly cover
// Q, and each is a single interval.
func Partition(cs ...Cond) []Cond {
	// Collect all interval boundaries, then rebuild atomic intervals.
	cut := interval.Empty()
	for _, c := range cs {
		for _, iv := range c.Set().Intervals() {
			cut = cut.Union(boundaryPoints(iv))
		}
	}
	// The points in `cut` divide the line; produce points and open gaps.
	var out []Cond
	prev := interval.NegInf()
	for _, iv := range cut.Intervals() {
		p, ok := iv.IsPoint()
		if !ok {
			// Boundary sets are unions of points by construction.
			continue
		}
		gap := interval.Interval{Lo: flipLo(prev), Hi: interval.At(p, false)}
		gs := interval.Of(gap)
		if !gs.IsEmpty() {
			out = append(out, FromSet(gs))
		}
		out = append(out, Eq(p))
		prev = interval.At(p, true)
	}
	last := interval.Of(interval.Interval{Lo: flipLo(prev), Hi: interval.PosInf()})
	if !last.IsEmpty() {
		out = append(out, FromSet(last))
	}
	return out
}

// flipLo converts the upper end of the previous region into the lower bound
// of the next gap.
func flipLo(b interval.Bound) interval.Bound {
	if b.Inf != 0 {
		return b
	}
	return interval.At(b.Value, !b.Closed)
}

// boundaryPoints returns the finite endpoints of iv as a set of points.
func boundaryPoints(iv interval.Interval) interval.Set {
	var pts []interval.Interval
	if iv.Lo.Inf == 0 {
		pts = append(pts, interval.Point(iv.Lo.Value))
	}
	if iv.Hi.Inf == 0 {
		pts = append(pts, interval.Point(iv.Hi.Value))
	}
	return interval.Of(pts...)
}
