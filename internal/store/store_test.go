package store

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incxml/internal/query"
	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

// quietLogf routes store warnings to the test log.
func quietLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// newCatalogHouse builds a webhouse with the paper's catalog registered.
func newCatalogHouse(t *testing.T) *webhouse.Webhouse {
	t.Helper()
	wh := webhouse.New()
	src, err := webhouse.NewSource("catalog", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	wh.Register(src)
	return wh
}

// houseState renders the durable state of one source as a comparable string.
func houseState(t *testing.T, wh *webhouse.Webhouse, source string) string {
	t.Helper()
	doc, know, steps, lossy, err := wh.Export(source)
	if err != nil {
		t.Fatalf("export %s: %v", source, err)
	}
	return strings.Join([]string{
		doc.CanonicalWithIDs(),
		know.String(),
		string(rune('0' + steps)),
		map[bool]string{false: "exact", true: "lossy"}[lossy],
	}, "\n---\n")
}

// driveCatalog applies a deterministic acquisition sequence: three
// explores, an update, and two more explores on the new document.
func driveCatalog(t *testing.T, wh *webhouse.Webhouse) {
	t.Helper()
	ctx := context.Background()
	for _, bound := range []int64{150, 200, 300} {
		if _, err := wh.Explore(ctx, "catalog", workload.Query1(bound)); err != nil {
			t.Fatalf("explore: %v", err)
		}
	}
	if err := wh.Update("catalog", workload.RandomCatalog(5, 42)); err != nil {
		t.Fatalf("update: %v", err)
	}
	for _, bound := range []int64{120, 260} {
		if _, err := wh.Explore(ctx, "catalog", workload.Query1(bound)); err != nil {
			t.Fatalf("explore after update: %v", err)
		}
	}
}

func TestWALReplayRestoresExactState(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, rec, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec.ReplayedEvents != 0 || rec.SnapshotsLoaded != 0 {
		t.Fatalf("fresh store reported recovery %+v", rec)
	}
	driveCatalog(t, wh)
	want := houseState(t, wh, "catalog")
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec2.ReplayedEvents != 6 { // 5 explores + 1 update
		t.Fatalf("replayed %d events, want 6 (%+v)", rec2.ReplayedEvents, rec2)
	}
	if got := houseState(t, wh2, "catalog"); got != want {
		t.Fatalf("replayed state differs from pre-crash state:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotAndRotationCoverHistory(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveCatalog(t, wh)
	if err := s.SnapshotAll(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if size := s.WALSize(); size > 16 {
		t.Fatalf("wal not rotated after SnapshotAll: %d bytes", size)
	}
	// Two more events after the rotation land in the fresh log.
	if _, err := wh.Explore(context.Background(), "catalog", workload.Query1(99)); err != nil {
		t.Fatalf("explore: %v", err)
	}
	want := houseState(t, wh, "catalog")
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec2.SnapshotsLoaded != 1 || rec2.ReplayedEvents != 1 {
		t.Fatalf("recovery = %+v, want 1 snapshot + 1 replayed event", rec2)
	}
	if got := houseState(t, wh2, "catalog"); got != want {
		t.Fatalf("snapshot+tail recovery differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAutomaticSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: 3, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveCatalog(t, wh) // 6 events: two automatic snapshot passes
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap", "catalog.snap")); err != nil {
		t.Fatalf("automatic snapshot missing: %v", err)
	}
	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: 3, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec2.SnapshotsLoaded != 1 {
		t.Fatalf("recovery = %+v, want snapshot load", rec2)
	}
	if got, want := houseState(t, wh2, "catalog"), houseState(t, wh, "catalog"); got != want {
		t.Fatalf("cadence recovery differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestTornTailTruncatedAtLastValidRecord(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx := context.Background()
	if _, err := wh.Explore(ctx, "catalog", workload.Query1(150)); err != nil {
		t.Fatalf("explore: %v", err)
	}
	want := houseState(t, wh, "catalog")
	durable := s.WALSize()
	if _, err := wh.Explore(ctx, "catalog", workload.Query1(200)); err != nil {
		t.Fatalf("explore: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Tear the last record: cut the file mid-way through it.
	walPath := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, full[:durable+3], 0o644); err != nil {
		t.Fatal(err)
	}

	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer s2.Close()
	if rec2.CorruptRecordsDropped == 0 {
		t.Fatalf("torn tail not counted: %+v", rec2)
	}
	if rec2.ReplayedEvents != 1 {
		t.Fatalf("replayed %d events, want 1 (the intact prefix)", rec2.ReplayedEvents)
	}
	if got := houseState(t, wh2, "catalog"); got != want {
		t.Fatalf("recovered state is not the durable prefix:\n got:\n%s\nwant:\n%s", got, want)
	}
	// The log was physically truncated: reopening again is clean.
	if info, err := os.Stat(walPath); err != nil || info.Size() != durable {
		t.Fatalf("wal not truncated to last valid record: size %v err %v (want %d)", info.Size(), err, durable)
	}
}

func TestCorruptSnapshotFallsBackToFullWALReplay(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveCatalog(t, wh)
	// Snapshot WITHOUT rotation: the WAL still holds all history.
	if err := s.Snapshot("catalog"); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	want := houseState(t, wh, "catalog")
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Bit-flip inside the snapshot payload: checksum mismatch.
	snapPath := filepath.Join(dir, "snap", "catalog.snap")
	buf, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x10
	if err := os.WriteFile(snapPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("reopen with corrupt snapshot: %v", err)
	}
	defer s2.Close()
	if rec2.SnapshotFallbacks != 1 || rec2.SnapshotsLoaded != 0 {
		t.Fatalf("recovery = %+v, want one snapshot fallback", rec2)
	}
	if rec2.ReplayedEvents != 6 {
		t.Fatalf("replayed %d events, want all 6", rec2.ReplayedEvents)
	}
	if len(rec2.Quarantined) != 0 {
		t.Fatalf("unexpected quarantine: %v", rec2.Quarantined)
	}
	if got := houseState(t, wh2, "catalog"); got != want {
		t.Fatalf("full-WAL fallback state differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(snapPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not set aside: %v", err)
	}
}

func TestCorruptSnapshotAfterRotationQuarantines(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveCatalog(t, wh)
	if err := s.SnapshotAll(); err != nil { // rotates: history now only in the snapshot
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	snapPath := filepath.Join(dir, "snap", "catalog.snap")
	buf, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF // bit-flipped checksum
	if err := os.WriteFile(snapPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("startup must not fail on an unrecoverable repository: %v", err)
	}
	defer s2.Close()
	if len(rec2.Quarantined) != 1 || rec2.Quarantined[0] != "catalog" {
		t.Fatalf("recovery = %+v, want catalog quarantined", rec2)
	}
	r, err := wh2.Repo("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Quarantined() {
		t.Fatal("repository not flagged quarantined")
	}
	if qs := wh2.QuarantinedSources(); len(qs) != 1 || qs[0] != "catalog" {
		t.Fatalf("QuarantinedSources = %v", qs)
	}
	// Pristine knowledge: serves degraded-but-sound answers.
	fresh := newCatalogHouse(t)
	_, know, steps, _, err := wh2.Export("catalog")
	if err != nil {
		t.Fatal(err)
	}
	_, freshKnow, _, _, _ := fresh.Export("catalog")
	if steps != 0 || know.String() != freshKnow.String() {
		t.Fatal("quarantined repository did not reset to pristine knowledge")
	}
	if _, err := os.Stat(snapPath + ".corrupt"); err != nil {
		t.Fatalf("quarantined snapshot not set aside for forensics: %v", err)
	}
	// The quarantined repository still serves and re-acquires.
	if _, err := wh2.Explore(context.Background(), "catalog", workload.Query1(150)); err != nil {
		t.Fatalf("explore on quarantined repo: %v", err)
	}
}

func TestUnknownSourceRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveCatalog(t, wh)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Recover into a webhouse where the source was renamed away.
	wh2 := webhouse.New()
	src, err := webhouse.NewSource("other", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		t.Fatal(err)
	}
	wh2.Register(src)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec2.ReplayedEvents != 0 || len(rec2.Quarantined) != 0 {
		t.Fatalf("recovery touched unknown-source records: %+v", rec2)
	}
}

// TestSeqResumesAfterWALLoss: when the WAL is lost (deleted, crushed to
// zero length by a torn rotation, or header-corrupt) while snapshots hold
// history up to seq N, recovery must re-anchor the sequence floor at N+1 —
// post-restart events written with seqs <= N would be silently skipped by
// the NEXT recovery's "inside the snapshot" check, losing acknowledged
// events.
func TestSeqResumesAfterWALLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose func(t *testing.T, walPath string)
	}{
		{"removed", func(t *testing.T, walPath string) {
			if err := os.Remove(walPath); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-length", func(t *testing.T, walPath string) {
			if err := os.Truncate(walPath, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-header", func(t *testing.T, walPath string) {
			buf, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			if err := os.WriteFile(walPath, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wh := newCatalogHouse(t)
			s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			driveCatalog(t, wh) // 6 events
			if err := s.SnapshotAll(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			tc.lose(t, filepath.Join(dir, "wal.log"))

			wh2 := newCatalogHouse(t)
			s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
			if err != nil {
				t.Fatalf("reopen after wal loss: %v", err)
			}
			if rec2.SnapshotsLoaded != 1 || len(rec2.Quarantined) != 0 {
				t.Fatalf("recovery = %+v, want snapshot restore without quarantine", rec2)
			}
			// New events after the loss must land on fresh sequence numbers.
			if _, err := wh2.Explore(context.Background(), "catalog", workload.Query1(180)); err != nil {
				t.Fatalf("post-loss explore: %v", err)
			}
			want := houseState(t, wh2, "catalog")
			if err := s2.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			wh3 := newCatalogHouse(t)
			s3, rec3, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh3)
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			defer s3.Close()
			if rec3.ReplayedEvents != 1 {
				t.Fatalf("replayed %d events, want 1 — the post-loss event was skipped as already-snapshotted", rec3.ReplayedEvents)
			}
			if got := houseState(t, wh3, "catalog"); got != want {
				t.Fatalf("post-loss event lost across restart:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestMissingSnapshotAfterRotationQuarantines: a snapshot lost after the
// rotation that moved its history out of the WAL cannot be told apart
// from health by the files alone — the rotation manifest records that the
// source HAD history, so recovery must quarantine it instead of silently
// serving pristine knowledge. A source genuinely registered after the
// rotation keeps the pristine-replay path.
func TestMissingSnapshotAfterRotationQuarantines(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveCatalog(t, wh)
	if err := s.SnapshotAll(); err != nil { // rotates: history now only in the snapshot
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, "snap", "catalog.snap")); err != nil {
		t.Fatal(err)
	}

	// The restarted fleet has one extra source that never existed before
	// the rotation: no snapshot for it is the healthy shape.
	wh2 := newCatalogHouse(t)
	late, err := webhouse.NewSource("late", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		t.Fatal(err)
	}
	wh2.Register(late)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("startup must not fail on a lost snapshot: %v", err)
	}
	defer s2.Close()
	if len(rec2.Quarantined) != 1 || rec2.Quarantined[0] != "catalog" {
		t.Fatalf("recovery = %+v, want exactly catalog quarantined", rec2)
	}
	r, err := wh2.Repo("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Quarantined() {
		t.Fatal("repository with lost snapshot not flagged quarantined")
	}
	if lr, err := wh2.Repo("late"); err != nil || lr.Quarantined() {
		t.Fatalf("post-rotation source wrongly quarantined (err=%v)", err)
	}
}

// TestStaleSnapshotQuarantines: restoring an older snapshot over the one
// the last rotation made durable leaves a gap — the events between the
// two were destroyed with the rotated WAL. Replaying the tail on top of
// the stale snapshot would fabricate a state the webhouse never passed
// through; recovery must quarantine instead.
func TestStaleSnapshotQuarantines(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx := context.Background()
	if _, err := wh.Explore(ctx, "catalog", workload.Query1(150)); err != nil {
		t.Fatalf("explore: %v", err)
	}
	if err := s.SnapshotAll(); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	snapPath := filepath.Join(dir, "snap", "catalog.snap")
	stale, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	driveCatalog(t, wh)
	if err := s.SnapshotAll(); err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(snapPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("startup must not fail on a stale snapshot: %v", err)
	}
	defer s2.Close()
	if len(rec2.Quarantined) != 1 || rec2.Quarantined[0] != "catalog" {
		t.Fatalf("recovery = %+v, want catalog quarantined for the snapshot gap", rec2)
	}
}

// TestCorruptManifestStillRecovers: a damaged rotation manifest is set
// aside; with intact snapshots recovery still restores every source (the
// manifest only matters when a snapshot is missing or corrupt).
func TestCorruptManifestStillRecovers(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveCatalog(t, wh)
	if err := s.SnapshotAll(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	want := houseState(t, wh, "catalog")
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	manifestPath := filepath.Join(dir, "manifest")
	buf, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest not written at rotation: %v", err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(manifestPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("reopen with corrupt manifest: %v", err)
	}
	defer s2.Close()
	if rec2.SnapshotsLoaded != 1 || len(rec2.Quarantined) != 0 {
		t.Fatalf("recovery = %+v, want clean snapshot restore", rec2)
	}
	if got := houseState(t, wh2, "catalog"); got != want {
		t.Fatalf("state differs after manifest corruption:\n got:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(manifestPath + ".corrupt"); err != nil {
		t.Fatalf("damaged manifest not set aside: %v", err)
	}
}

func TestCorruptWALHeaderStartsFresh(t *testing.T) {
	dir := t.TempDir()
	wh := newCatalogHouse(t)
	s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveCatalog(t, wh)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	walPath := filepath.Join(dir, "wal.log")
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // destroy the magic
	if err := os.WriteFile(walPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	wh2 := newCatalogHouse(t)
	s2, rec2, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
	if err != nil {
		t.Fatalf("reopen with corrupt header: %v", err)
	}
	defer s2.Close()
	if rec2.ReplayedEvents != 0 {
		t.Fatalf("replayed %d events from an untrusted log", rec2.ReplayedEvents)
	}
	if _, err := os.Stat(walPath + ".corrupt"); err != nil {
		t.Fatalf("damaged wal not set aside: %v", err)
	}
}

// TestRedundantObservationRecovers re-poses answered queries, whose folds
// the webhouse skips while still journaling them, and crashes: recovery
// must replay the journal to the identical knowledge, observation count and
// lossy flag, skipping the same folds. In the lossy round a one-step budget
// degrades the first fold, so the chain journals full states instead of
// observations from then on.
func TestRedundantObservationRecovers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"exact", 0}, {"lossy", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wh := newCatalogHouse(t)
			s, _, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			ctx := context.Background()
			explore := func(q query.Query) {
				t.Helper()
				if _, err := wh.Explore(ctx, "catalog", q); err != nil {
					t.Fatalf("explore: %v", err)
				}
			}
			wh.SetBudget(tc.budget)
			explore(workload.Query1(200))
			wh.SetBudget(0)
			explore(workload.Query2())
			if _, _, _, lossy, _ := wh.Export("catalog"); lossy != (tc.budget > 0) {
				t.Fatalf("lossy = %v with budget %d", lossy, tc.budget)
			}
			know, err := wh.Knowledge("catalog")
			if err != nil {
				t.Fatal(err)
			}
			state := houseState(t, wh, "catalog")
			explore(workload.Query2()) // redundant: answered just now
			if got, _ := wh.Knowledge("catalog"); got != know || houseState(t, wh, "catalog") != state {
				t.Fatal("re-posed queries were folded; the test needs redundant observations")
			}
			explore(workload.Query4())
			want := houseState(t, wh, "catalog")
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			wh2 := newCatalogHouse(t)
			s2, rec, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(t)}, wh2)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			if rec.ReplayedEvents != 4 {
				t.Fatalf("replayed %d events, want 4 (%+v)", rec.ReplayedEvents, rec)
			}
			if got := houseState(t, wh2, "catalog"); got != want {
				t.Fatalf("recovered state differs from pre-crash state:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
