package store

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"incxml/internal/itree"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
)

// DefaultSnapEvery is the automatic full-snapshot cadence: after this many
// WAL appends the store snapshots every repository and rotates the log.
const DefaultSnapEvery = 64

// Options configures a store.
type Options struct {
	// Dir is the data directory (created if absent). One store owns one
	// directory; it holds wal.log, the rotation manifest, and
	// snap/<source>.snap files.
	Dir string
	// SnapEvery is the automatic snapshot-and-rotate cadence in WAL
	// appends; 0 means DefaultSnapEvery, negative disables automatic
	// snapshots (explicit SnapshotAll only).
	SnapEvery int
	// Logf receives recovery warnings (corrupt tails, snapshot fallbacks,
	// quarantines). nil means the standard library logger.
	Logf func(format string, args ...any)
}

// Recovery summarizes what OpenOrRecover reconstructed, for the warm-start
// banner and tests.
type Recovery struct {
	// SnapshotsLoaded counts repositories restored from a valid snapshot.
	SnapshotsLoaded int
	// ReplayedEvents counts WAL records folded into the webhouse.
	ReplayedEvents int
	// CorruptRecordsDropped counts WAL records cut from the tail (torn or
	// corrupt); the log was truncated after the last valid record.
	CorruptRecordsDropped int
	// SnapshotFallbacks counts corrupt snapshots set aside in favor of
	// full-WAL replay.
	SnapshotFallbacks int
	// Quarantined lists sources that could not be restored at all: their
	// files were renamed aside and they serve from pristine knowledge,
	// flagged (webhouse.Repository.Quarantined).
	Quarantined []string
}

// shadowState is the store's view of one repository's latest durable
// state, maintained from journal events (and recovery) so snapshots never
// have to reach back into the webhouse — journal hooks run under the
// repository lock, which forbids re-entry. Trees are immutable once
// captured.
type shadowState struct {
	lastSeq   uint64
	doc       tree.Tree
	hasDoc    bool
	knowledge *itree.T
	steps     int
	lossy     bool
}

// Store persists one webhouse's acquisition history: a WAL of events plus
// per-repository snapshots, under one data directory. It implements
// webhouse.Journal. All methods are safe for concurrent use.
type Store struct {
	dir       string
	snapEvery int
	logf      func(string, ...any)

	mu               sync.Mutex
	w                *wal
	manifest         *manifest // last durable rotation point (nil: none recorded)
	nextSeq          uint64
	shadow           map[string]*shadowState
	pending          []*record // decoded WAL records awaiting Recover
	dropped          int       // corrupt records cut at open
	appendsSinceSnap int
	closed           bool
}

// Open opens (creating if needed) the data directory and scans the WAL,
// truncating any torn tail. Call Recover to fold the persisted state into
// a webhouse, then Attach to start journaling; OpenOrRecover does all
// three.
func Open(opts Options) (*Store, error) {
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	snapEvery := opts.SnapEvery
	if snapEvery == 0 {
		snapEvery = DefaultSnapEvery
	}
	if opts.Dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "snap"), 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	w, records, dropped, err := openWAL(filepath.Join(opts.Dir, "wal.log"), 1, logf)
	if err != nil {
		return nil, err
	}
	next := w.baseSeq
	if next == 0 {
		next = 1
	}
	for _, rec := range records {
		if rec.seq >= next {
			next = rec.seq + 1
		}
	}
	s := &Store{
		dir:       opts.Dir,
		snapEvery: snapEvery,
		logf:      logf,
		w:         w,
		nextSeq:   next,
		shadow:    map[string]*shadowState{},
		pending:   records,
		dropped:   dropped,
	}
	m, err := readManifestFile(s.manifestPath())
	switch {
	case err == nil:
		s.manifest = m
	case os.IsNotExist(err):
	case errors.Is(err, ErrCorrupt):
		// A manifest that does not verify is set aside like any other
		// damaged artifact; recovery then has no proof of coverage and
		// falls to its conservative paths.
		logf("store: rotation manifest damaged (%v): setting aside", err)
		s.setAside(s.manifestPath(), ".corrupt")
	default:
		w.close()
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	// The sequence floor must survive the WAL: if the log was lost or
	// recreated while snapshots (tracked by the manifest) carry history up
	// to seq N, restarting numbering below N+1 would hand out sequence
	// numbers the next recovery silently skips as "inside the snapshot" —
	// losing acknowledged events. Recover raises the floor further from
	// the snapshot files themselves.
	if s.manifest != nil {
		if s.manifest.baseSeq > s.nextSeq {
			s.nextSeq = s.manifest.baseSeq
		}
		for _, seq := range s.manifest.lastSeq {
			if seq+1 > s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
	}
	return s, nil
}

// OpenOrRecover is the standard startup path: open the directory, recover
// the persisted state into wh (whose sources must already be registered),
// and attach the store as wh's journal.
func OpenOrRecover(opts Options, wh *webhouse.Webhouse) (*Store, *Recovery, error) {
	s, err := Open(opts)
	if err != nil {
		return nil, nil, err
	}
	rec, err := s.Recover(wh)
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	s.Attach(wh)
	return s, rec, nil
}

func (s *Store) snapPath(source string) string {
	return filepath.Join(s.dir, "snap", sanitizeName(source)+".snap")
}

func (s *Store) manifestPath() string {
	return filepath.Join(s.dir, "manifest")
}

// effectiveBase is the highest rotation point any surviving artifact
// records. The manifest can run ahead of the WAL header when a crash hit
// between the manifest write and the rotation itself; events below the
// manifest's baseSeq may already have been captured only in snapshots.
func (s *Store) effectiveBase() uint64 {
	b := s.w.baseSeq
	if s.manifest != nil && s.manifest.baseSeq > b {
		b = s.manifest.baseSeq
	}
	return b
}

// walFromStart reports that the open WAL genuinely reaches the beginning
// of history: its contents were read back (not recreated fresh) and no
// rotation ever moved events out of it.
func (s *Store) walFromStart() bool {
	return !s.w.fresh && s.effectiveBase() == 1
}

// replayCovers reports whether pristine knowledge plus a full replay of
// the open WAL reconstructs the source's entire history — the test that
// licenses recovering a source without (or despite) its snapshot.
// snapExisted says a snapshot file for the source was found on disk, even
// an unreadable one.
func (s *Store) replayCovers(name string, snapExisted bool) bool {
	if s.w.fresh {
		// The log's contents are gone (missing file, zero length, or an
		// unverifiable header): replay contributes nothing, so pristine is
		// right only when no surviving artifact records history for the
		// source.
		return !snapExisted && s.manifest.lastSeqOf(name) == 0
	}
	if s.effectiveBase() == 1 {
		return true // the log reaches the beginning of history
	}
	if s.manifest == nil {
		return false // rotated, but no manifest survives to prove coverage
	}
	// Everything before the rotation is out of the log; the manifest knows
	// whether this source had events there. lastSeq 0 means it did not
	// (registered with no events, or registered after the rotation), so
	// the log holds its whole history.
	return s.manifest.lastSeqOf(name) == 0
}

// Recover folds the persisted state into wh. For each registered source:
// a valid snapshot no older than the rotation manifest's record is
// installed and the WAL records past its LastSeq are replayed; a missing
// or corrupt snapshot (the latter renamed aside) degrades to full-WAL
// replay from pristine knowledge when the log provably covers the
// source's whole history — it was never rotated, or the manifest records
// no events for the source before the rotation; otherwise history is gone
// and the source is quarantined. A snapshot older than the manifest's
// lastSeq for its source (a gap: the missing events were destroyed with
// the rotated log) also quarantines, as does any replay failure — never a
// startup failure. WAL records for sources not registered in wh are
// skipped with a warning. Finally the recovered sequence floor (max of
// WAL records, snapshot LastSeqs, and manifest) is re-anchored into a
// bare log's header so post-restart events can never reuse sequence
// numbers a snapshot already covers.
//
// Recover must run before Attach (no live events interleaving) and at most
// once per Store.
func (s *Store) Recover(wh *webhouse.Webhouse) (*Recovery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &Recovery{CorruptRecordsDropped: s.dropped}
	registered := map[string]bool{}
	for _, name := range wh.Sources() {
		registered[name] = true
	}
	// Phase 1: install snapshots (or decide fallback/quarantine per source).
	quarantined := map[string]bool{}
	snapSeq := map[string]uint64{}
	for _, name := range wh.Sources() {
		payload, err := readSnapshotFile(s.snapPath(name))
		switch {
		case err == nil:
			if payload.Source != name {
				// A snapshot for a different source under this name: corrupt
				// by construction (sanitizeName is injective).
				err = corruptf("snapshot names source %q", payload.Source)
				break // to the corrupt-snapshot handling below the switch
			}
			if last := s.manifest.lastSeqOf(name); last > payload.LastSeq && !s.walFromStart() {
				// The snapshot is OLDER than the one the last rotation made
				// durable: the events in (snapshot.LastSeq, last] were
				// destroyed with the rotated log, so replaying the WAL tail
				// on top of this snapshot would fabricate a state the
				// webhouse never passed through. Gap → quarantine.
				s.logf("store: source %q: snapshot at seq %d predates the rotation manifest (seq %d): quarantining", name, payload.LastSeq, last)
				quarantined[name] = true
				continue
			}
			if err = s.applySnapshot(wh, payload); err == nil {
				snapSeq[name] = payload.LastSeq
				if payload.LastSeq+1 > s.nextSeq {
					s.nextSeq = payload.LastSeq + 1
				}
				out.SnapshotsLoaded++
				continue
			}
			// Loaded but unappliable (e.g. the persisted document no longer
			// validates against the registered type): treat as corrupt.
		case os.IsNotExist(err):
			if s.replayCovers(name, false) {
				// No snapshot, but the WAL provably holds the source's whole
				// history (or it never had any): pristine + full replay is
				// exact.
				snapSeq[name] = 0
				continue
			}
			// The source has history the surviving files cannot restore —
			// its snapshot was lost after a rotation, or the WAL is gone.
			// Serving pristine knowledge UNFLAGGED here would be
			// indistinguishable from health; quarantine instead.
			s.logf("store: source %q: snapshot missing with history beyond the wal (base seq %d, manifest seq %d): quarantining",
				name, s.w.baseSeq, s.manifest.lastSeqOf(name))
			quarantined[name] = true
			continue
		case !errors.Is(err, ErrCorrupt):
			return nil, fmt.Errorf("store: read snapshot for %q: %w", name, err)
		}
		// Corrupt (or unappliable) snapshot: set it aside, then degrade to
		// full-WAL replay only when the log provably covers the source's
		// history; otherwise that history is gone and the source is
		// quarantined rather than served as a state it never held.
		s.setAside(s.snapPath(name), ".corrupt")
		if !s.replayCovers(name, true) {
			s.logf("store: source %q: corrupt snapshot and incomplete wal (base seq %d): quarantining", name, s.w.baseSeq)
			quarantined[name] = true
			continue
		}
		mSnapFallbacks.Inc()
		out.SnapshotFallbacks++
		s.logf("store: source %q: corrupt snapshot (%v): falling back to full-WAL replay", name, err)
		snapSeq[name] = 0
	}
	// Phase 2: replay the WAL in sequence order.
	warnedUnknown := map[string]bool{}
	for _, rec := range s.pending {
		if !registered[rec.source] {
			if !warnedUnknown[rec.source] {
				warnedUnknown[rec.source] = true
				s.logf("store: wal names unregistered source %q: skipping its records", rec.source)
			}
			continue
		}
		if quarantined[rec.source] {
			continue
		}
		if rec.seq <= snapSeq[rec.source] {
			continue // already inside the snapshot
		}
		if err := s.applyRecord(wh, rec); err != nil {
			s.logf("store: source %q: replay of record seq %d failed (%v): quarantining", rec.source, rec.seq, err)
			quarantined[rec.source] = true
			continue
		}
		mRecoveryReplayed.Inc()
		out.ReplayedEvents++
		s.bumpShadow(wh, rec)
	}
	// Phase 3: quarantine what could not be restored.
	for name := range quarantined {
		if err := wh.Quarantine(name); err != nil {
			return nil, err
		}
		mQuarantined.Inc()
		s.setAside(s.snapPath(name), ".quarantined")
		delete(s.shadow, name) // re-captured pristine at Attach
		out.Quarantined = append(out.Quarantined, name)
	}
	sort.Strings(out.Quarantined)
	s.pending = nil
	// Phase 4: re-anchor the on-disk sequence floor. After a WAL loss the
	// bare log's header can lag the recovered floor (snapshots at seq N,
	// header claiming baseSeq 1); leaving it would both misdescribe where
	// history starts and, if this process then crashed before any append,
	// let a LATER process restart numbering low. Rewrite the header (and
	// the manifest it must agree with) to the recovered floor. Failures
	// only log: the in-memory floor is already correct, and the next
	// recovery re-derives it from the same surviving artifacts.
	if s.w.bare() && s.w.baseSeq != s.nextSeq {
		m := &manifest{baseSeq: s.nextSeq, lastSeq: map[string]uint64{}}
		for name, seq := range snapSeq {
			m.lastSeq[name] = seq
		}
		for name := range quarantined {
			// Keep the lost-history marker so the source stays flagged on
			// every restart until a fresh snapshot pass re-covers it.
			if last := s.manifest.lastSeqOf(name); last > 0 {
				m.lastSeq[name] = last
			}
		}
		if err := writeManifestFile(s.manifestPath(), m); err != nil {
			s.logf("store: re-anchor manifest: %v", err)
		} else if err := s.w.rotate(s.nextSeq); err != nil {
			s.logf("store: re-anchor wal header: %v", err)
		} else {
			s.manifest = m
		}
	}
	return out, nil
}

// applySnapshot installs one decoded snapshot into the webhouse and seeds
// the shadow state.
func (s *Store) applySnapshot(wh *webhouse.Webhouse, p *SnapshotPayload) error {
	if p.HasDoc {
		if err := wh.Update(p.Source, p.Doc); err != nil {
			return err
		}
	}
	if err := wh.RestoreKnowledge(p.Source, p.Knowledge, p.Steps, p.Lossy); err != nil {
		return err
	}
	s.shadow[p.Source] = &shadowState{
		lastSeq:   p.LastSeq,
		doc:       p.Doc,
		hasDoc:    p.HasDoc,
		knowledge: p.Knowledge,
		steps:     p.Steps,
		lossy:     p.Lossy,
	}
	return nil
}

// applyRecord folds one WAL record into the webhouse.
func (s *Store) applyRecord(wh *webhouse.Webhouse, rec *record) error {
	switch rec.kind {
	case recObserve:
		return wh.ReplayObserve(rec.source, rec.query, rec.answer)
	case recState:
		return wh.RestoreKnowledge(rec.source, rec.knowledge, rec.steps, rec.lossy)
	case recInvalidate:
		return wh.Invalidate(rec.source)
	case recUpdate:
		return wh.Update(rec.source, rec.doc)
	}
	return corruptf("bad record kind 0x%02x", rec.kind)
}

// bumpShadow refreshes the shadow state after replaying rec.
func (s *Store) bumpShadow(wh *webhouse.Webhouse, rec *record) {
	sh := s.shadow[rec.source]
	if sh == nil {
		sh = &shadowState{}
		s.shadow[rec.source] = sh
	}
	sh.lastSeq = rec.seq
	switch rec.kind {
	case recUpdate:
		sh.doc, sh.hasDoc = rec.doc, true
	}
	// Knowledge/steps/lossy: read back the post-replay state (cheap: the
	// refiner hands out its current pointers).
	if _, know, steps, lossy, err := wh.Export(rec.source); err == nil {
		sh.knowledge, sh.steps, sh.lossy = know, steps, lossy
	}
}

// Attach captures a baseline for every source the recovery did not already
// shadow and installs the store as wh's journal. Call after Recover and
// before serving traffic.
func (s *Store) Attach(wh *webhouse.Webhouse) {
	s.mu.Lock()
	for _, name := range wh.Sources() {
		if _, ok := s.shadow[name]; ok {
			continue
		}
		doc, know, steps, lossy, err := wh.Export(name)
		if err != nil {
			continue
		}
		s.shadow[name] = &shadowState{
			doc:       doc,
			hasDoc:    doc.Root != nil,
			knowledge: know,
			steps:     steps,
			lossy:     lossy,
		}
	}
	s.mu.Unlock()
	wh.SetJournal(s)
}

// Record implements webhouse.Journal: it appends the event to the WAL,
// refreshes the shadow state, and — on the configured cadence — snapshots
// every repository and rotates the log. It is called with the repository
// write lock held and never calls back into the webhouse.
func (s *Store) Record(ev webhouse.JournalEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	seq := s.nextSeq
	s.nextSeq++
	rec := &record{seq: seq, source: ev.Source}
	switch ev.Kind {
	case webhouse.EventObserve:
		if ev.Lossy {
			// A lossy chain's state depends on budget timing replay cannot
			// reproduce: journal the full post-fold state instead of the
			// observation.
			rec.kind = recState
			rec.knowledge, rec.steps, rec.lossy = ev.Knowledge, ev.Steps, ev.Lossy
		} else {
			rec.kind = recObserve
			rec.query, rec.answer = ev.Query, ev.Answer
		}
	case webhouse.EventRestore:
		rec.kind = recState
		rec.knowledge, rec.steps, rec.lossy = ev.Knowledge, ev.Steps, ev.Lossy
	case webhouse.EventInvalidate:
		rec.kind = recInvalidate
	case webhouse.EventUpdate:
		rec.kind = recUpdate
		rec.doc = ev.Doc
	default:
		s.logf("store: dropping journal event of unknown kind %d", ev.Kind)
		return
	}
	n, err := s.w.append(encodeRecord(rec))
	if err != nil {
		s.logf("store: wal append failed (%v): event seq %d not persisted", err, seq)
		return
	}
	mWALAppends.Inc()
	mWALBytes.Add(uint64(n))
	sh := s.shadow[ev.Source]
	if sh == nil {
		sh = &shadowState{}
		s.shadow[ev.Source] = sh
	}
	sh.lastSeq = seq
	if ev.Kind == webhouse.EventUpdate {
		sh.doc, sh.hasDoc = ev.Doc, true
	}
	sh.knowledge, sh.steps, sh.lossy = ev.Knowledge, ev.Steps, ev.Lossy
	s.appendsSinceSnap++
	if s.snapEvery > 0 && s.appendsSinceSnap >= s.snapEvery {
		if err := s.snapshotAllLocked(); err != nil {
			s.logf("store: automatic snapshot failed: %v", err)
		}
	}
}

// Snapshot writes the snapshot file for one source from the shadow state.
func (s *Store) Snapshot(source string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shadow[source]
	if !ok {
		return fmt.Errorf("store: no state for source %q", source)
	}
	return s.writeSnapshotLocked(source, sh)
}

func (s *Store) writeSnapshotLocked(source string, sh *shadowState) error {
	start := time.Now()
	framed := frameSnapshot(EncodeSnapshotPayload(&SnapshotPayload{
		Source:    source,
		LastSeq:   sh.lastSeq,
		Doc:       sh.doc,
		HasDoc:    sh.hasDoc,
		Knowledge: sh.knowledge,
		Steps:     sh.steps,
		Lossy:     sh.lossy,
	}))
	if err := writeSnapshotFile(s.snapPath(source), framed); err != nil {
		return err
	}
	mSnapshots.Inc()
	mSnapshotMicros.Observe(time.Since(start).Microseconds())
	return nil
}

// SnapshotAll snapshots every repository and, on success, rotates the WAL:
// all history is now inside the snapshots, so the log restarts at a bare
// header. This is the SIGTERM-drain flush and the automatic-cadence body.
func (s *Store) SnapshotAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotAllLocked()
}

func (s *Store) snapshotAllLocked() error {
	for source, sh := range s.shadow {
		if err := s.writeSnapshotLocked(source, sh); err != nil {
			return err
		}
	}
	// Order matters — each step only runs once the previous is durable:
	// snapshots (fsynced), then the manifest recording the rotation point
	// and each source's covered lastSeq, then the rotation that destroys
	// the WAL's history. A crash between any two steps leaves a recoverable
	// combination (the WAL still holds everything the snapshots do; replay
	// past a snapshot's LastSeq is idempotent).
	m := &manifest{baseSeq: s.nextSeq, lastSeq: make(map[string]uint64, len(s.shadow))}
	for source, sh := range s.shadow {
		m.lastSeq[source] = sh.lastSeq
	}
	if err := writeManifestFile(s.manifestPath(), m); err != nil {
		return err
	}
	s.manifest = m
	if err := s.w.rotate(s.nextSeq); err != nil {
		return fmt.Errorf("store: rotate wal: %w", err)
	}
	s.appendsSinceSnap = 0
	return nil
}

// WALSize reports the current byte size of the log (header included).
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.size
}

// Dir reports the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Close closes the WAL file. The store drops further events; detach it
// from the webhouse (SetJournal(nil)) or stop traffic first if every last
// event must be captured.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.w.close()
}

// setAside renames a file out of the recovery path, keeping it for
// forensics. Missing files and rename failures are non-fatal (the caller
// is already on a degraded path).
func (s *Store) setAside(path, suffix string) {
	if _, err := os.Stat(path); err != nil {
		return
	}
	if err := os.Rename(path, path+suffix); err != nil {
		s.logf("store: could not set aside %s: %v", path, err)
	}
}
