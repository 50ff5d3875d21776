// Package interval implements intervals over Q ∪ {−∞, +∞} and normalized
// unions of disjoint intervals.
//
// Lemma 2.3 of the paper shows every condition (a Boolean combination of
// comparisons with constants) is equivalent to a union of intervals linear in
// the size of the condition. This package is that normal form: a Set is a
// sorted slice of pairwise disjoint, non-adjacent, nonempty intervals, and
// Boolean operations (union, intersection, complement) preserve the normal
// form. Satisfiability is non-emptiness; equivalence is structural equality.
package interval

import (
	"encoding/binary"
	"sort"
	"strings"

	"incxml/internal/rat"
)

// Bound is one endpoint of an interval: a rational value or an infinity.
type Bound struct {
	// Inf is -1 for −∞, +1 for +∞, 0 for a finite value.
	Inf int
	// Value is the endpoint when Inf == 0.
	Value rat.Rat
	// Closed reports whether the endpoint itself belongs to the interval.
	// Infinite bounds are never closed.
	Closed bool
}

// NegInf returns the −∞ bound.
func NegInf() Bound { return Bound{Inf: -1} }

// PosInf returns the +∞ bound.
func PosInf() Bound { return Bound{Inf: 1} }

// At returns a finite bound at v, closed or open.
func At(v rat.Rat, closed bool) Bound { return Bound{Value: v, Closed: closed} }

// cmpValue orders bounds by position on the extended number line, ignoring
// open/closed.
func (b Bound) cmpValue(c Bound) int {
	if b.Inf != c.Inf {
		if b.Inf < c.Inf {
			return -1
		}
		return 1
	}
	if b.Inf != 0 {
		return 0
	}
	return b.Value.Cmp(c.Value)
}

// Interval is a nonempty convex subset of Q: all x with Lo ≤(<) x ≤(<) Hi.
type Interval struct {
	Lo, Hi Bound
}

// Point returns the degenerate interval [v, v].
func Point(v rat.Rat) Interval {
	return Interval{At(v, true), At(v, true)}
}

// All returns the full line (−∞, +∞).
func All() Interval { return Interval{NegInf(), PosInf()} }

// valid reports whether the interval contains at least one rational.
func (iv Interval) valid() bool {
	c := iv.Lo.cmpValue(iv.Hi)
	if c > 0 {
		return false
	}
	if c == 0 {
		// Same position: nonempty only if both bounds are finite and closed.
		return iv.Lo.Inf == 0 && iv.Lo.Closed && iv.Hi.Closed
	}
	return true
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v rat.Rat) bool {
	if iv.Lo.Inf == 0 {
		c := v.Cmp(iv.Lo.Value)
		if c < 0 || (c == 0 && !iv.Lo.Closed) {
			return false
		}
	}
	if iv.Hi.Inf == 0 {
		c := v.Cmp(iv.Hi.Value)
		if c > 0 || (c == 0 && !iv.Hi.Closed) {
			return false
		}
	}
	return true
}

// IsPoint reports whether the interval is a single value, returning it.
func (iv Interval) IsPoint() (rat.Rat, bool) {
	if iv.Lo.Inf == 0 && iv.Hi.Inf == 0 && iv.Lo.Closed && iv.Hi.Closed && iv.Lo.Value.Equal(iv.Hi.Value) {
		return iv.Lo.Value, true
	}
	return rat.Rat{}, false
}

// Witness returns some rational inside the interval. Intervals are nonempty
// by construction, so a witness always exists. For unbounded intervals it
// picks an integer one unit beyond the finite endpoint (or 0 for the full
// line); for bounded open intervals it picks the midpoint.
func (iv Interval) Witness() rat.Rat {
	switch {
	case iv.Lo.Inf < 0 && iv.Hi.Inf > 0:
		return rat.Zero
	case iv.Lo.Inf < 0:
		if iv.Hi.Closed {
			return iv.Hi.Value
		}
		return iv.Hi.Value.Sub(rat.One)
	case iv.Hi.Inf > 0:
		if iv.Lo.Closed {
			return iv.Lo.Value
		}
		return iv.Lo.Value.Add(rat.One)
	case iv.Lo.Closed:
		return iv.Lo.Value
	case iv.Hi.Closed:
		return iv.Hi.Value
	default:
		return iv.Lo.Value.Mid(iv.Hi.Value)
	}
}

// String renders the interval in standard mathematical notation.
func (iv Interval) String() string {
	var b strings.Builder
	if iv.Lo.Closed {
		b.WriteByte('[')
	} else {
		b.WriteByte('(')
	}
	if iv.Lo.Inf < 0 {
		b.WriteString("-inf")
	} else {
		b.WriteString(iv.Lo.Value.String())
	}
	b.WriteString(",")
	if iv.Hi.Inf > 0 {
		b.WriteString("+inf")
	} else {
		b.WriteString(iv.Hi.Value.String())
	}
	if iv.Hi.Closed {
		b.WriteByte(']')
	} else {
		b.WriteByte(')')
	}
	return b.String()
}

// Set is a normalized union of intervals: sorted, pairwise disjoint, and not
// adjacent (no two intervals whose union is itself an interval). The empty
// Set is the empty subset of Q; Full() is all of Q. A Set is never mutated
// once built, so sets may share their interval slices: Full returns one
// shared slice, and Intersect returns an operand itself when the other is
// full.
type Set struct {
	ivs []Interval
}

// Empty returns the empty set.
func Empty() Set { return Set{} }

// full is the interval slice of every Full set.
var full = []Interval{All()}

// Full returns all of Q.
func Full() Set { return Set{full} }

// Of builds a normalized Set from arbitrary intervals (invalid/empty ones
// are dropped, overlapping and adjacent ones merged).
func Of(ivs ...Interval) Set {
	keep := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.valid() {
			keep = append(keep, iv)
		}
	}
	if len(keep) == 0 {
		return Set{}
	}
	sort.Slice(keep, func(i, j int) bool {
		c := keep[i].Lo.cmpValue(keep[j].Lo)
		if c != 0 {
			return c < 0
		}
		// Closed lower bound starts earlier than open at the same value.
		return keep[i].Lo.Closed && !keep[j].Lo.Closed
	})
	// Merge in place: the write index never passes the read index.
	out := keep[:1]
	for _, iv := range keep[1:] {
		last := &out[len(out)-1]
		if mergeable(*last, iv) {
			if hiLess(last.Hi, iv.Hi) {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return Set{out}
}

// hiLess reports whether upper bound a ends strictly before upper bound b.
func hiLess(a, b Bound) bool {
	c := a.cmpValue(b)
	if c != 0 {
		return c < 0
	}
	if a.Inf != 0 {
		return false
	}
	return !a.Closed && b.Closed
}

// mergeable reports whether an interval starting at b.Lo continues or touches
// a (given a sorted by Lo and a.Lo ≤ b.Lo).
func mergeable(a, b Interval) bool {
	c := a.Hi.cmpValue(b.Lo)
	if c > 0 {
		return true
	}
	if c < 0 {
		return false
	}
	// Equal positions: they merge if the shared endpoint is covered by either
	// side ([x,..] meets [..,x] closed-closed, closed-open or open-closed).
	if a.Hi.Inf != 0 {
		return true
	}
	return a.Hi.Closed || b.Lo.Closed
}

// Intervals returns the normalized component intervals (not to be mutated).
func (s Set) Intervals() []Interval { return s.ivs }

// IsEmpty reports whether the set has no elements — i.e. the condition it
// encodes is unsatisfiable.
func (s Set) IsEmpty() bool { return len(s.ivs) == 0 }

// IsFull reports whether the set is all of Q.
func (s Set) IsFull() bool {
	return len(s.ivs) == 1 && s.ivs[0].Lo.Inf < 0 && s.ivs[0].Hi.Inf > 0
}

// Contains reports whether v is a member.
func (s Set) Contains(v rat.Rat) bool {
	// Binary search over sorted disjoint intervals.
	lo, hi := 0, len(s.ivs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		iv := s.ivs[mid]
		if iv.Contains(v) {
			return true
		}
		if iv.Lo.Inf == 0 && v.Less(iv.Lo.Value) || iv.Lo.Inf > 0 {
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return false
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	all := make([]Interval, 0, len(s.ivs)+len(t.ivs))
	all = append(all, s.ivs...)
	all = append(all, t.ivs...)
	return Of(all...)
}

// Intersect returns s ∩ t. When one operand is full it returns the other
// without copying.
func (s Set) Intersect(t Set) Set {
	switch {
	case s.IsFull():
		return t
	case t.IsFull():
		return s
	}
	var out []Interval
	for _, a := range s.ivs {
		for _, b := range t.ivs {
			iv := intersect2(a, b)
			if iv.valid() {
				out = append(out, iv)
			}
		}
	}
	return Of(out...)
}

func intersect2(a, b Interval) Interval {
	lo := a.Lo
	if c := b.Lo.cmpValue(lo); c > 0 || (c == 0 && !b.Lo.Closed) {
		lo = b.Lo
	}
	hi := a.Hi
	if c := b.Hi.cmpValue(hi); c < 0 || (c == 0 && !b.Hi.Closed) {
		hi = b.Hi
	}
	return Interval{lo, hi}
}

// Complement returns Q \ s.
func (s Set) Complement() Set {
	if len(s.ivs) == 0 {
		return Full()
	}
	var out []Interval
	cur := NegInf()
	curOpen := false // whether cur endpoint should be closed in output
	for _, iv := range s.ivs {
		gap := Interval{Lo: Bound{Inf: cur.Inf, Value: cur.Value, Closed: curOpen}, Hi: flip(iv.Lo)}
		if gap.valid() {
			out = append(out, gap)
		}
		cur = iv.Hi
		curOpen = !iv.Hi.Closed && iv.Hi.Inf == 0
	}
	last := Interval{Lo: Bound{Inf: cur.Inf, Value: cur.Value, Closed: curOpen}, Hi: PosInf()}
	if cur.Inf == 0 && last.valid() {
		out = append(out, last)
	} else if cur.Inf < 0 {
		out = append(out, All())
	}
	return Of(out...)
}

// flip converts a lower bound into the matching upper bound of the preceding
// gap (closed becomes open and vice versa); infinities stay put.
func flip(b Bound) Bound {
	if b.Inf != 0 {
		return b
	}
	return Bound{Value: b.Value, Closed: !b.Closed}
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return s.Intersect(t.Complement()) }

// Equal reports set equality; normal forms make this structural.
func (s Set) Equal(t Set) bool {
	if len(s.ivs) != len(t.ivs) {
		return false
	}
	for i := range s.ivs {
		if !boundEqual(s.ivs[i].Lo, t.ivs[i].Lo) || !boundEqual(s.ivs[i].Hi, t.ivs[i].Hi) {
			return false
		}
	}
	return true
}

func boundEqual(a, b Bound) bool {
	if a.Inf != b.Inf {
		return false
	}
	if a.Inf != 0 {
		return true
	}
	return a.Closed == b.Closed && a.Value.Equal(b.Value)
}

// AppendKey appends a byte key of the normal form to dst: two sets have the
// same key iff they are Equal. Callers that partition by condition use it as
// a map key without rendering the set.
func (s Set) AppendKey(dst []byte) []byte {
	for _, iv := range s.ivs {
		dst = iv.Lo.appendKey(dst)
		dst = iv.Hi.appendKey(dst)
	}
	return dst
}

// appendKey encodes an infinite bound as one byte (0 or 2) and a finite one
// as 1, the closed flag and the value's canonical numerator and denominator.
func (b Bound) appendKey(dst []byte) []byte {
	if b.Inf != 0 {
		return append(dst, byte(b.Inf+1))
	}
	closed := byte(0)
	if b.Closed {
		closed = 1
	}
	k := b.Value.Key()
	dst = append(dst, 1, closed)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(k[0]))
	return binary.LittleEndian.AppendUint64(dst, uint64(k[1]))
}

// Subset reports whether s ⊆ t.
func (s Set) Subset(t Set) bool { return s.Minus(t).IsEmpty() }

// Disjoint reports whether s ∩ t = ∅. Definition 3.1(2) requires mutually
// exclusive conditions on sibling specializations; this is the test.
func (s Set) Disjoint(t Set) bool { return s.Intersect(t).IsEmpty() }

// Witness returns a member of the set and true, or false if empty.
func (s Set) Witness() (rat.Rat, bool) {
	if len(s.ivs) == 0 {
		return rat.Rat{}, false
	}
	return s.ivs[0].Witness(), true
}

// Witnesses returns one value from every component interval; Lemma 2.3 uses
// exactly this to evaluate a condition on all equivalence classes.
func (s Set) Witnesses() []rat.Rat {
	out := make([]rat.Rat, len(s.ivs))
	for i, iv := range s.ivs {
		out[i] = iv.Witness()
	}
	return out
}

// AsPoint reports whether the set is the single value v (the paper's
// "cond(a) = v" notation in the proof of Theorem 2.8).
func (s Set) AsPoint() (rat.Rat, bool) {
	if len(s.ivs) != 1 {
		return rat.Rat{}, false
	}
	return s.ivs[0].IsPoint()
}

// Size returns the number of component intervals.
func (s Set) Size() int { return len(s.ivs) }

// String renders the set as a union of intervals, or "empty"/"all".
func (s Set) String() string {
	if s.IsEmpty() {
		return "empty"
	}
	if s.IsFull() {
		return "all"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " u ")
}
