package webhouse

import (
	"sync"

	"incxml/internal/budget"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/refine"
	"incxml/internal/tree"
)

// EventKind identifies one acquisition mutation for the durability journal.
type EventKind int

// The three mutation shapes of the acquisition loop. Explore and the two
// AnswerComplete fold paths all reduce to EventObserve (a ps-query/answer
// pair folded by Algorithm Refine); Invalidate and Update are knowledge
// resets, the latter carrying the replacement document.
const (
	EventObserve EventKind = iota + 1
	EventInvalidate
	EventUpdate
	// EventRestore is a wholesale knowledge install (RestoreKnowledge
	// outside recovery — e.g. a rebalancing import): the journal must
	// persist the full post-state, there is no observation to replay.
	EventRestore
)

// JournalEvent describes one applied mutation. It is emitted while the
// repository's write lock is still held, so for any one source events
// arrive in exactly the order the mutations were applied.
//
// The event carries both the replayable inputs (Query/Answer, Doc) and the
// resulting state (Knowledge/Steps/Lossy, snapshotted after the fold) so a
// journal can choose per event between logging the compact input — exact
// replay re-derives the state, valid while the chain is non-lossy — and
// logging the full post-state, required once a lossy fold made the chain
// depend on budget timing that replay cannot reproduce. Knowledge is the
// refiner's current tree; it is immutable once emitted (folds replace the
// pointer, never mutate in place), so journals may retain it without
// copying.
type JournalEvent struct {
	Kind   EventKind
	Source string

	// Query and Answer are the folded observation (EventObserve).
	Query  query.Query
	Answer tree.Tree

	// Doc is the replacement document (EventUpdate).
	Doc tree.Tree

	// Knowledge, Steps and Lossy snapshot the refiner state after the
	// mutation (all kinds).
	Knowledge *itree.T
	Steps     int
	Lossy     bool
}

// Journal receives every applied acquisition mutation. Record is called
// with the repository write lock held: implementations must not call back
// into the webhouse (or any Repository method) and should return quickly —
// buffered appends, not fsyncs. The durability layer (internal/store)
// implements this.
type Journal interface {
	Record(ev JournalEvent)
}

// SetJournal installs the acquisition journal; nil detaches it. Install
// before serving traffic: mutations applied while no journal is attached
// are not re-emitted later.
func (wh *Webhouse) SetJournal(j Journal) {
	wh.journalMu.Lock()
	wh.journal = j
	wh.journalMu.Unlock()
}

// journalRecord emits ev to the attached journal, if any. Callers hold the
// repository write lock, keeping the per-source event order identical to
// the mutation order.
func (wh *Webhouse) journalRecord(ev JournalEvent) {
	wh.journalMu.RLock()
	j := wh.journal
	wh.journalMu.RUnlock()
	if j != nil {
		j.Record(ev)
	}
}

// Export snapshots a repository's durable state consistently: the current
// source document, the refiner's accumulated tree (not the reachable
// intersection, which is derived), the observation count, and the lossy
// flag. The returned trees are immutable snapshots.
func (wh *Webhouse) Export(source string) (doc tree.Tree, knowledge *itree.T, steps int, lossy bool, err error) {
	r, err := wh.Repo(source)
	if err != nil {
		return tree.Tree{}, nil, 0, false, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.Source.Doc(), r.refiner.Tree(), r.refiner.Steps(), r.refiner.Lossy(), nil
}

// ReplayObserve folds a journaled observation during recovery, without a
// budget (replay must be exact: live non-lossy folds are exact too, so the
// replayed chain reproduces the pre-crash state byte for byte) and without
// re-journaling. The inconsistency recovery matches the live path
// (foldLocked): a contradicting observation is folded against a fresh
// state, which replaces the knowledge only if that fold succeeds.
func (wh *Webhouse) ReplayObserve(source string, q query.Query, a tree.Tree) error {
	r, err := wh.Repo(source)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err = r.foldLocked(q, a, func() *budget.B { return nil })
	return err
}

// RestoreKnowledge installs a decoded knowledge state — a snapshot, a WAL
// State record, or a rebalancing import — exactly as the originating chain
// stood. A nil knowledge restores the pristine post-Register state. The
// install is journaled as an EventRestore so an import survives a later
// crash; during recovery no journal is attached yet, so replay does not
// re-journal itself.
func (wh *Webhouse) RestoreKnowledge(source string, knowledge *itree.T, steps int, lossy bool) error {
	r, err := wh.Repo(source)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refiner = refine.RestoreRefiner(r.Source.Type.Alphabet(), r.Source.Type, knowledge, steps, lossy)
	wh.journalRecord(JournalEvent{
		Kind:      EventRestore,
		Source:    r.Source.Name,
		Knowledge: r.refiner.Tree(),
		Steps:     steps,
		Lossy:     lossy,
	})
	return nil
}

// resetLocked reinitializes the knowledge to the source type. Caller holds
// r.mu for writing.
func (r *Repository) resetLocked() {
	r.refiner = refine.NewRefiner(r.Source.Type.Alphabet(), r.Source.Type)
}

// Quarantine marks a repository unrecoverable: its knowledge is reset to
// the pristine source-type state and every answer is computed from that
// empty knowledge — sound but maximally approximate, the Theorem 3.14
// degraded mode — instead of the process refusing to start. The flag stays
// set for the life of the process.
func (wh *Webhouse) Quarantine(source string) error {
	r, err := wh.Repo(source)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.resetLocked()
	r.mu.Unlock()
	r.quarantined.Store(true)
	return nil
}

// Quarantined reports whether recovery quarantined this repository.
func (r *Repository) Quarantined() bool { return r.quarantined.Load() }

// journalState is the journal attachment point; it lives on the Webhouse
// but is declared here with the rest of the durability surface.
type journalState struct {
	journalMu sync.RWMutex
	journal   Journal
}
