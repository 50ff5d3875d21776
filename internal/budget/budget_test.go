package budget

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *B
	for i := 0; i < 1000; i++ {
		if err := b.Charge(1 << 40); err != nil {
			t.Fatalf("nil budget exhausted: %v", err)
		}
	}
	if b.Exhausted() || b.Err() != nil || b.ExhaustedCause() != CauseNone {
		t.Fatal("nil budget reports exhaustion")
	}
}

func TestStepExhaustionIsSticky(t *testing.T) {
	b := New(context.Background(), 10)
	if err := b.Charge(10); err != nil {
		t.Fatalf("charge within limit: %v", err)
	}
	err := b.Charge(1)
	if err == nil {
		t.Fatal("over-limit charge succeeded")
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("exhaustion error does not match ErrExhausted: %v", err)
	}
	var be *Error
	if !errors.As(err, &be) || be.Cause != CauseSteps || be.Limit != 10 {
		t.Fatalf("wrong error detail: %+v", err)
	}
	// Sticky: the same error comes back, and Charge(0) fails too.
	if err2 := b.Charge(0); err2 != err {
		t.Fatalf("exhaustion not sticky: %v vs %v", err2, err)
	}
	if b.ExhaustedCause() != CauseSteps {
		t.Fatalf("cause = %v", b.ExhaustedCause())
	}
}

func TestDeadlineExhaustion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, 0) // no step limit
	if err := b.Charge(pollEvery * 3); err != nil {
		t.Fatalf("charge before cancel: %v", err)
	}
	cancel()
	// The poll happens at most pollEvery steps after cancellation.
	var err error
	for i := 0; i < pollEvery+1; i++ {
		if err = b.Charge(1); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("cancelled context never exhausted the budget")
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("deadline exhaustion should match ErrExhausted and the ctx error: %v", err)
	}
	if b.ExhaustedCause() != CauseDeadline {
		t.Fatalf("cause = %v", b.ExhaustedCause())
	}
}

func TestDeadlinePassed(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	b := New(ctx, 0)
	var err error
	for i := 0; i < 2*pollEvery && err == nil; i++ {
		err = b.Charge(1)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline not detected: %v", err)
	}
}

func TestConcurrentCharges(t *testing.T) {
	const workers = 8
	b := New(context.Background(), 1000)
	var wg sync.WaitGroup
	var exhausted sync.Map
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := b.Charge(1); err != nil {
					exhausted.Store(g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !b.Exhausted() {
		t.Fatal("8000 charges against a 1000-step budget did not exhaust it")
	}
	// Every worker that saw exhaustion saw the same sticky error.
	var first error
	exhausted.Range(func(_, v any) bool {
		if first == nil {
			first = v.(error)
		} else if v.(error) != first {
			t.Errorf("distinct exhaustion errors: %v vs %v", v, first)
		}
		return true
	})
}

func TestTri(t *testing.T) {
	if Of(true) != Yes || Of(false) != No {
		t.Fatal("Of broken")
	}
	if !Yes.Known() || !No.Known() || Unknown.Known() {
		t.Fatal("Known broken")
	}
	if v, ok := Yes.Bool(); !v || !ok {
		t.Fatal("Yes.Bool broken")
	}
	if _, ok := Unknown.Bool(); ok {
		t.Fatal("Unknown.Bool claims known")
	}
	var zero Tri
	if zero != No {
		t.Fatal("zero Tri must be No (never a fabricated certificate)")
	}
	for tri, want := range map[Tri]string{Yes: `"yes"`, No: `"no"`, Unknown: `"unknown"`} {
		got, err := tri.MarshalJSON()
		if err != nil || string(got) != want {
			t.Fatalf("MarshalJSON(%v) = %s, %v", tri, got, err)
		}
	}
}

func TestCapSteps(t *testing.T) {
	bg := context.Background()
	for _, tc := range []struct {
		name            string
		configured, cap int64
		want            int64
	}{
		{"no cap", 100, 0, 100},
		{"cap below", 100, 10, 10},
		{"cap above", 100, 1000, 100},
		{"cap equal", 100, 100, 100},
		{"unlimited configuration", 0, 50, 50},
		{"unlimited, no cap", 0, 0, 0},
	} {
		if got := CapSteps(WithStepCap(bg, tc.cap), tc.configured); got != tc.want {
			t.Errorf("%s: CapSteps(cap %d, configured %d) = %d, want %d", tc.name, tc.cap, tc.configured, got, tc.want)
		}
	}
}
