package cond

import (
	"math/rand"
	"strings"
	"testing"

	"incxml/internal/rat"
)

// complementString is Cond.String with "!= v" spotted through the set's
// complement, the reference for the direct shape test in Cond.String.
func complementString(c Cond) string {
	s := c.Set()
	if s.IsEmpty() {
		return "false"
	}
	if s.IsFull() {
		return "true"
	}
	if comp := s.Complement(); comp.Size() == 1 {
		if v, ok := comp.AsPoint(); ok {
			return "!= " + v.String()
		}
	}
	parts := make([]string, 0, s.Size())
	for _, iv := range s.Intervals() {
		parts = append(parts, intervalCond(iv))
	}
	return strings.Join(parts, " | ")
}

// TestStringMatchesComplementReference renders random conditions over
// small integer and fractional constants both ways: the renderings must be
// byte-identical, and the sweep must reach "!= v".
func TestStringMatchesComplementReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	atoms := []func(rat.Rat) Cond{Eq, Ne, Lt, Le, Gt, Ge}
	ne := 0
	for i := 0; i < 20000; i++ {
		c := True()
		if rng.Intn(2) == 0 {
			c = False()
		}
		for k := rng.Intn(4) + 1; k > 0; k-- {
			atom := atoms[rng.Intn(len(atoms))](rat.New(int64(rng.Intn(9)-4), int64(rng.Intn(3)+1)))
			switch rng.Intn(3) {
			case 0:
				c = c.And(atom)
			case 1:
				c = c.Or(atom)
			default:
				c = c.And(atom.Not())
			}
		}
		got, want := c.String(), complementString(c)
		if got != want {
			t.Fatalf("String(%v) = %q, complement reference %q", c.Set(), got, want)
		}
		if strings.HasPrefix(got, "!= ") {
			ne++
		}
	}
	if ne == 0 {
		t.Fatal("the sweep never rendered a \"!= v\" condition")
	}
}
