package store

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"incxml/internal/obs"
	"incxml/internal/query"
	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

// The crash-recovery soak: drive a journaled webhouse through a random
// acquisition script, crash it by mutilating the WAL at a random point
// (truncation at an arbitrary byte offset, a bit flip, or appended
// garbage), recover into a fresh webhouse, and require the recovered state
// to be byte-identical to the state the live webhouse actually passed
// through at the corresponding durable prefix — the shadow oracle is the
// sequence of canonical state renderings captured after every event, so
// recovery can never be excused for producing a merely-plausible state.
//
// Rounds alternate snapshot cadence (never / mid-script / automatic) and
// budget configuration (unlimited / tiny, the latter forcing lossy folds
// and hence full-state WAL records). A third of the explores re-pose a
// query the source was already asked, so the script also journals
// observations the webhouse does not fold (redundant ones, whose answer the
// knowledge already certifies) and, after an update, certified queries
// whose answer changed. Each round then proves the recovered
// process is a working baseline: a second restart is idempotent, and
// events appended after the recovery land on fresh sequence numbers and
// survive a further restart.

const soakSources = 2

func soakHouse(t *testing.T, budget int64) *webhouse.Webhouse {
	t.Helper()
	wh := webhouse.New()
	for i := 0; i < soakSources; i++ {
		name := fmt.Sprintf("src%d", i)
		src, err := webhouse.NewSource(name, workload.CatalogType(), workload.RandomCatalog(3+i, int64(100+i)))
		if err != nil {
			t.Fatalf("source %s: %v", name, err)
		}
		wh.Register(src)
	}
	if budget > 0 {
		wh.SetBudget(budget)
	}
	return wh
}

// captureAll renders every source's durable state.
func captureAll(t *testing.T, wh *webhouse.Webhouse) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range wh.Sources() {
		out[name] = houseState(t, wh, name)
	}
	return out
}

func TestCrashRecoverySoak(t *testing.T) {
	rounds := 220
	if testing.Short() {
		rounds = 12
	}
	redundant := func() float64 {
		return obs.Default().Snapshot()[`incxml_refine_observe_total{outcome="redundant"}`]
	}
	before := redundant()
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round%03d", round), func(t *testing.T) {
			runSoakRound(t, int64(round))
		})
	}
	t.Logf("%v redundant observations were skipped, live or in replay", redundant()-before)
	if redundant() == before {
		t.Error("no round journaled a redundant observation")
	}
}

func runSoakRound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	dir := t.TempDir()
	var budget int64
	if seed%4 == 3 {
		budget = 150 + rng.Int63n(400) // tiny: forces lossy folds
	}
	snapEvery := -1
	if seed%4 == 2 {
		snapEvery = 2 + rng.Intn(3)
	}
	wh := soakHouse(t, budget)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: snapEvery, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Drive the script, capturing the oracle state and WAL size per event.
	nEvents := 5 + rng.Intn(6)
	states := []map[string]string{captureAll(t, wh)} // states[i] = after event i
	sizes := []int64{s.WALSize()}
	rotIdx := 0
	ctx := context.Background()
	asked := map[string][]query.Query{}
	for i := 1; i <= nEvents; i++ {
		name := fmt.Sprintf("src%d", rng.Intn(soakSources))
		switch op := rng.Intn(10); {
		case op < 6: // explore, re-posing an earlier query a third of the time
			var q query.Query
			if prev := asked[name]; len(prev) > 0 && rng.Intn(3) == 0 {
				q = prev[rng.Intn(len(prev))]
			} else {
				q = workload.RandomLinearQuery(workload.CatalogType(), rng.Int63(), 2+rng.Intn(2), 60)
				asked[name] = append(asked[name], q)
			}
			if _, err := wh.Explore(ctx, name, q); err != nil {
				t.Fatalf("event %d: explore %s: %v", i, name, err)
			}
		case op < 8: // update
			if err := wh.Update(name, workload.RandomCatalog(2+rng.Intn(4), rng.Int63())); err != nil {
				t.Fatalf("event %d: update %s: %v", i, name, err)
			}
		case op < 9: // invalidate
			if err := wh.Invalidate(name); err != nil {
				t.Fatalf("event %d: invalidate %s: %v", i, name, err)
			}
		default: // manual snapshot pass (not a journaled event)
			if err := s.SnapshotAll(); err != nil {
				t.Fatalf("event %d: snapshot: %v", i, err)
			}
		}
		size := s.WALSize()
		if size < sizes[len(sizes)-1] {
			rotIdx = i // a rotation happened during this event: 1..i are in snapshots
		}
		sizes = append(sizes, size)
		states = append(states, captureAll(t, wh))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Crash: mutilate the WAL at a random byte offset.
	walPath := filepath.Join(dir, "wal.log")
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(rng.Intn(len(buf) + 1))
	mode := rng.Intn(3)
	switch mode {
	case 0: // kill at random write offset: everything past off is lost
		buf = buf[:off]
	case 1: // bit flip: the record containing off fails its checksum
		if off == int64(len(buf)) && off > 0 {
			off--
		}
		if off < int64(len(buf)) {
			buf[off] ^= byte(1 + rng.Intn(255))
		}
	case 2: // torn write: a partial garbage record after the cut
		buf = buf[:off]
		garbage := make([]byte, 1+rng.Intn(40))
		rng.Read(garbage)
		buf = append(buf, garbage...)
	}
	if err := os.WriteFile(walPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	// The durable prefix: events covered by snapshots (1..rotIdx) plus the
	// WAL records that still verify, i.e. post-rotation events whose end
	// offset is at or before the mutilation point.
	durable := rotIdx
	for i := rotIdx + 1; i <= nEvents; i++ {
		if sizes[i] != sizes[i-1] && sizes[i] <= off {
			durable = i
		}
	}
	// Events that appended nothing (snapshot ops) stay durable with their
	// predecessor; walk forward over zero-append events.
	for durable+1 <= nEvents && sizes[durable+1] == sizes[durable] {
		durable++
	}

	wh2 := soakHouse(t, budget)
	s2, rec, err := OpenOrRecover(Options{Dir: dir, SnapEvery: snapEvery, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("recovery must not fail: %v", err)
	}
	defer s2.Close()
	if len(rec.Quarantined) != 0 {
		t.Fatalf("unexpected quarantine %v (recovery %+v)", rec.Quarantined, rec)
	}
	got := captureAll(t, wh2)
	want := states[durable]
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("seed %d mode %d off %d/%d rot %d: source %s diverged from oracle state %d/%d:\n got:\n%s\nwant:\n%s",
				seed, mode, off, len(buf), rotIdx, name, durable, nEvents, got[name], w)
		}
	}

	// Recovery is idempotent: a second crash-free restart lands on the same
	// state again.
	s2.Close()
	wh3 := soakHouse(t, budget)
	s3, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: snapEvery, Logf: quietLogf(t)}, wh3)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	again := captureAll(t, wh3)
	for name, w := range got {
		if again[name] != w {
			t.Fatalf("seed %d: recovery not idempotent for %s:\n first:\n%s\n second:\n%s", seed, name, w, again[name])
		}
	}

	// Recovery is a working baseline, not just a readable state: events
	// appended after the crash must land on fresh sequence numbers (a WAL
	// lost while snapshots hold history must not restart numbering inside
	// the snapshots' range) and survive the next restart intact.
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("src%d", rng.Intn(soakSources))
		q := workload.RandomLinearQuery(workload.CatalogType(), rng.Int63(), 2+rng.Intn(2), 60)
		if _, err := wh3.Explore(ctx, name, q); err != nil {
			t.Fatalf("post-recovery explore %s: %v", name, err)
		}
	}
	final := captureAll(t, wh3)
	if err := s3.Close(); err != nil {
		t.Fatalf("close after post-recovery events: %v", err)
	}
	wh4 := soakHouse(t, budget)
	s4, rec4, err := OpenOrRecover(Options{Dir: dir, SnapEvery: snapEvery, Logf: quietLogf(t)}, wh4)
	if err != nil {
		t.Fatalf("post-append recovery: %v", err)
	}
	defer s4.Close()
	if len(rec4.Quarantined) != 0 {
		t.Fatalf("post-append recovery quarantined %v (%+v)", rec4.Quarantined, rec4)
	}
	after := captureAll(t, wh4)
	for name, w := range final {
		if after[name] != w {
			t.Fatalf("seed %d: post-recovery events lost across restart for %s:\n got:\n%s\nwant:\n%s", seed, name, after[name], w)
		}
	}
}
