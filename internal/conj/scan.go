package conj

import (
	"context"
	"math"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// This file implements the pruned certificate search that Empty and
// EmptyBudgeted run. The naive NP procedure of Theorem 3.10 enumerates
// every certificate π (one disjunct per conjunct per symbol, exponentially
// many), builds T_π, and tests its emptiness; the observation behind this
// solver is that T_π's emptiness depends on π only through the symbol sets
// actually reachable from a root set, so the two quantifiers can be swapped:
//
//	rep(T) ≠ ∅  ⟺  ∃ root set S, ∃ atom choices on the closure of S,
//	               such that S is productive under those choices.
//
// The search assigns atom choices (mixed-radix "digits") lazily, only for
// symbols whose sets are actually reached, and backtracks over them with a
// trail. Three prunings keep the search polynomial on the families the
// benchmarks measure, each justified against the reference scan:
//
//   - Root-set prefixes that are target-incompatible or condition-
//     unsatisfiable are cut: both properties are monotone in set extension,
//     so no completion of the prefix can be productive.
//   - Per-set join results are memoized on the members' digits: a set's
//     join depends only on those digits, never on the rest of π.
//   - Productivity results are memoized with the external digit reads they
//     depended on, Tarjan-style (a result computed under an on-stack cycle
//     cut is only cached when the cut did not reach below the entry depth).
//
// A revisit of an on-stack set is an unproductive least-fixpoint cycle —
// within one search branch the digits are fixed, so the revisit would demand
// the same derivation it is part of — and evaluates to false, exactly as the
// ctype.Productive fixpoint treats it.
//
// The solver is exact on both sides. A "no witness" outcome implies the
// reference scan finds every certificate empty (the search is strictly more
// permissive: a join error only kills one set evaluation here but discards
// the whole certificate there). A witness is confirmed by building T_π for
// its digit assignment through the reference buildPi before answering
// non-empty; in the rare case confirmation fails (a join-bounds error
// elsewhere in the extended certificate poisons it), the solver falls back
// to the reference scan so verdicts stay identical.

// maxProdMemo bounds the per-set productivity memo; past it the solver just
// recomputes, trading steps for memory on adversarial instances.
const maxProdMemo = 64

// scanFrame tracks one in-flight prod evaluation: the trail length at entry
// (digits below it are external reads, above it internal branching), the
// external symbols read so far, and the shallowest on-stack cycle cut hit.
type scanFrame struct {
	baseTrail int
	reads     []int32
	minCut    int
}

// joinItem is one child of a joined atom: the set it expands to and the
// occurrence bound it carries.
type joinItem struct {
	child *setEntry
	mult  dtd.Mult
}

// joinRes is the memoized outcome of joining a set's chosen atoms.
type joinRes struct {
	ok    bool // join feasible (tuples cover all required items)
	err   bool // bounds merge not expressible — poisons the certificate
	items []joinItem
}

// prodEntry is one memoized productivity verdict, valid whenever every
// recorded external (symbol, digit) read matches the current assignment.
type prodEntry struct {
	readSyms   []int32
	readDigits []int32
	result     bool
}

// setEntry is the canonical record of one normalized symbol set.
type setEntry struct {
	members    []int32 // sorted, deduplicated symbol indices
	ok         bool    // targets compatible (≤1 node, labels agree, node exists)
	node       tree.NodeID
	eff        cond.Cond // ∧ member conds, pinned to ν(node) for node targets
	effSat     bool
	joinMemo   map[string]*joinRes
	prodMemo   []prodEntry
	onStack    bool
	stackDepth int
}

// scanProg is the per-call state of the pruned search.
type scanProg struct {
	t   *T
	ctx context.Context
	bud *budget.B

	syms    []ctype.Symbol // sorted — same order as certificateSpace
	symOf   map[ctype.Symbol]int32
	cnf     []CNF
	conds   []cond.Cond
	tgts    []ctype.Target
	counts  []int // per-symbol digit radix
	dead    bool  // some symbol has an atomless conjunct: no feasible certificate
	errFree bool  // no join anywhere in any certificate can hit the bounds error

	asg      []int32 // current digit per symbol, -1 unassigned
	trailPos []int32 // trail index of the assignment, -1 unassigned
	trail    []int32

	sets   map[string]*setEntry
	keyBuf []byte
	frames []scanFrame

	aborted   bool // budget or context cut the search short
	poisoned  bool // some join hit the bounds-merge error
	sincePoll int
}

func newScanProg(t *T, ctx context.Context, b *budget.B) *scanProg {
	syms, counts := t.certificateSpace()
	p := &scanProg{
		t:        t,
		ctx:      ctx,
		bud:      b,
		syms:     syms,
		counts:   counts,
		symOf:    make(map[ctype.Symbol]int32, len(syms)),
		cnf:      make([]CNF, len(syms)),
		conds:    make([]cond.Cond, len(syms)),
		tgts:     make([]ctype.Target, len(syms)),
		asg:      make([]int32, len(syms)),
		trailPos: make([]int32, len(syms)),
		sets:     make(map[string]*setEntry),
	}
	// Static join-error analysis. The only non-budget failure the reference
	// build can hit is the joinAtoms bounds-merge error, which needs two
	// distinct tuples of one join normalizing to the same symbol set with an
	// inexpressible summed multiplicity. Either of two global conditions rules
	// it out for every certificate:
	//
	//   - all-Star: every content-model item is Star, so every tuple folds to
	//     Star and duplicate sums stay [0,∞) = Star;
	//   - no-repeat: no symbol occurs in two item positions across all CNFs,
	//     so two distinct tuples can never normalize to the same set (the
	//     tuples must differ at some atom, and equal sets would force the
	//     differing symbol to reappear in another item position).
	//
	// When either holds a witness needs no confirmation against the reference
	// build: its extended certificate cannot be poisoned.
	allStar := true
	noRepeat := true
	occ := make(map[ctype.Symbol]bool, len(syms))
	for i, s := range syms {
		p.symOf[s] = int32(i)
		p.cnf[i] = t.CNFFor(s)
		p.conds[i] = t.CondFor(s)
		p.tgts[i] = t.TargetFor(s)
		for _, d := range p.cnf[i] {
			if len(d) == 0 {
				p.dead = true
			}
			for _, a := range d {
				for _, item := range a {
					if item.Mult != dtd.Star {
						allStar = false
					}
					if occ[item.Sym] {
						noRepeat = false
					}
					occ[item.Sym] = true
				}
			}
		}
		p.trailPos[i] = -1
		if counts[i] <= 1 {
			p.asg[i] = 0 // trivial symbol: its only digit, never branched
		} else {
			p.asg[i] = -1
		}
	}
	p.errFree = allStar || noRepeat
	return p
}

// charge spends budget; on failure (steps or deadline) the whole search
// aborts and unwinds through false returns. With a nil budget the context is
// polled directly so unbudgeted callers still honor cancellation.
func (p *scanProg) charge(n int64) bool {
	if p.aborted {
		return false
	}
	if p.bud != nil {
		if p.bud.Charge(n) != nil {
			p.aborted = true
			return false
		}
		return true
	}
	if p.sincePoll += int(n); p.sincePoll >= 256 {
		p.sincePoll = 0
		if p.ctx.Err() != nil {
			p.aborted = true
			return false
		}
	}
	return true
}

func (p *scanProg) assign(s, d int32) {
	p.asg[s] = d
	p.trailPos[s] = int32(len(p.trail))
	p.trail = append(p.trail, s)
}

func (p *scanProg) unassign(s int32) {
	p.trail = p.trail[:len(p.trail)-1]
	p.asg[s] = -1
	p.trailPos[s] = -1
}

// readDigit records that the current prod evaluation depends on s's digit,
// unless s was bound inside this evaluation (then it is being searched, not
// read) or is trivial (its digit never varies).
func (p *scanProg) readDigit(s int32) {
	if len(p.frames) == 0 {
		return
	}
	f := &p.frames[len(p.frames)-1]
	if p.trailPos[s] >= int32(f.baseTrail) && p.trailPos[s] >= 0 {
		return
	}
	for _, r := range f.reads {
		if r == s {
			return
		}
	}
	f.reads = append(f.reads, s)
}

// popFrame folds a finished evaluation's dependencies into its parent: the
// cycle-cut watermark always, and each read that is still external to the
// parent. Reads internal to the parent (bound by the parent's own member
// branching) are its search variables, not dependencies.
func (p *scanProg) popFrame() {
	n := len(p.frames) - 1
	f := p.frames[n]
	p.frames = p.frames[:n]
	if n == 0 {
		return
	}
	pf := &p.frames[n-1]
	if f.minCut < pf.minCut {
		pf.minCut = f.minCut
	}
	for _, s := range f.reads {
		if p.trailPos[s] >= 0 && p.trailPos[s] < int32(pf.baseTrail) {
			dup := false
			for _, r := range pf.reads {
				if r == s {
					dup = true
					break
				}
			}
			if !dup {
				pf.reads = append(pf.reads, s)
			}
		}
	}
}

// packSet writes the members as a map key into the shared scratch buffer.
func (p *scanProg) packSet(members []int32) []byte {
	key := p.keyBuf[:0]
	for _, m := range members {
		key = append(key, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	p.keyBuf = key
	return key
}

// internSet canonicalizes members (sort + dedup, mirroring normalizeSet) and
// returns the set's record, computing target compatibility and the effective
// condition on first sight. Returns nil only when the budget aborts.
func (p *scanProg) internSet(members []int32) *setEntry {
	ns := make([]int32, len(members))
	copy(ns, members)
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
	w := 0
	for i, m := range ns {
		if i == 0 || m != ns[w-1] {
			ns[w] = m
			w++
		}
	}
	ns = ns[:w]
	key := p.packSet(ns)
	if e, ok := p.sets[string(key)]; ok {
		return e
	}
	if !p.charge(1) {
		return nil
	}
	e := &setEntry{members: ns}
	e.node, e.ok = p.setTarget(ns)
	if e.ok {
		c := cond.True()
		for _, m := range ns {
			c = c.And(p.conds[m])
		}
		if e.node != "" {
			c = c.And(cond.Eq(p.t.Nodes[e.node].Value))
		}
		e.eff = c
		e.effSat = c.Satisfiable()
	}
	p.sets[string(key)] = e
	return e
}

// setTarget is compatibleSet over symbol indices: at most one distinct data
// node, all label targets equal (and matching the node's label when both
// kinds are present). It returns the pinned node, "" for pure label sets.
func (p *scanProg) setTarget(set []int32) (tree.NodeID, bool) {
	var node tree.NodeID
	var label tree.Label
	haveLabel := false
	for _, m := range set {
		tg := p.tgts[m]
		if tg.IsNode() {
			if node != "" && node != tg.Node {
				return "", false
			}
			node = tg.Node
		} else {
			if haveLabel && label != tg.Label {
				return "", false
			}
			haveLabel = true
			label = tg.Label
		}
	}
	if node != "" {
		info, ok := p.t.Nodes[node]
		if !ok {
			return "", false
		}
		if haveLabel && label != info.Label {
			return "", false
		}
	}
	return node, true
}

// tupleValueCompatible mirrors valueCompatible over indices: a node item
// pins the value, which every label item's condition must admit.
func (p *scanProg) tupleValueCompatible(set []int32) bool {
	var pinned rat.Rat
	havePinned := false
	for _, m := range set {
		if tg := p.tgts[m]; tg.IsNode() {
			info, ok := p.t.Nodes[tg.Node]
			if !ok {
				return false
			}
			pinned, havePinned = info.Value, true
			break
		}
	}
	if !havePinned {
		return true
	}
	for _, m := range set {
		if tg := p.tgts[m]; !tg.IsNode() {
			if !p.conds[m].Holds(pinned) {
				return false
			}
		}
	}
	return true
}

// solve searches for a productive root set: one symbol from every root
// choice, pruned as soon as the accumulated prefix cannot be completed.
func (p *scanProg) solve() bool {
	roots := p.t.Roots
	if len(roots) == 0 {
		return false
	}
	acc := make([]int32, 0, len(roots))
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if p.aborted {
			return false
		}
		if i == len(roots) {
			e := p.internSet(acc)
			if e == nil || !e.ok || !e.effSat {
				return false
			}
			return p.prod(e, func() bool { return true })
		}
		for _, s := range roots[i] {
			if !p.charge(1) {
				return false
			}
			acc = append(acc, p.symOf[s])
			if p.prefixFeasible(acc) && dfs(i+1) {
				return true
			}
			acc = acc[:len(acc)-1]
		}
		return false
	}
	return dfs(0)
}

// prefixFeasible cuts root prefixes that no extension can rescue: target
// incompatibility and condition unsatisfiability are both monotone in set
// extension (extensions only add constraints).
func (p *scanProg) prefixFeasible(acc []int32) bool {
	node, ok := p.setTarget(acc)
	if !ok {
		return false
	}
	c := cond.True()
	for _, m := range acc {
		c = c.And(p.conds[m])
	}
	if node != "" {
		c = c.And(cond.Eq(p.t.Nodes[node].Value))
	}
	return c.Satisfiable()
}

// prod decides whether set e is productive under the current (partial) digit
// assignment, extending it over e's unassigned members, and on success calls
// the continuation k with the witness bindings in place. It returns true iff
// some derivation of e satisfied k.
func (p *scanProg) prod(e *setEntry, k func() bool) bool {
	if p.aborted || !e.ok || !e.effSat {
		return false
	}
	if e.onStack {
		// Least-fixpoint cycle: within one branch the digits are fixed, so
		// this occurrence would need the very derivation it is part of.
		if len(p.frames) > 0 {
			f := &p.frames[len(p.frames)-1]
			if e.stackDepth < f.minCut {
				f.minCut = e.stackDepth
			}
		}
		return false
	}
	for i := range e.prodMemo {
		m := &e.prodMemo[i]
		match := true
		for j, s := range m.readSyms {
			if p.asg[s] != m.readDigits[j] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		// Replay: the entry's reads become this evaluation's reads.
		for _, s := range m.readSyms {
			p.readDigit(s)
		}
		if m.result {
			return k()
		}
		return false
	}
	if !p.charge(1) {
		return false
	}
	depth := len(p.frames)
	e.onStack, e.stackDepth = true, depth
	p.frames = append(p.frames, scanFrame{baseTrail: len(p.trail), minCut: math.MaxInt})
	entryTrail := len(p.trail)
	kCalled := false
	res := p.chooseMembers(e, 0, func() bool {
		jr := p.join(e)
		if jr == nil || jr.err || !jr.ok {
			return false
		}
		return p.prodChildren(jr.items, 0, func() bool {
			if !kCalled {
				kCalled = true
				// A success with no internal bindings is self-contained:
				// cache it against the external digits it read. (With no
				// free members the evaluation is deterministic, so k runs
				// at most once and no later derivation is lost.)
				if len(p.trail) == entryTrail && len(e.prodMemo) < maxProdMemo {
					e.prodMemo = append(e.prodMemo, p.snapshotEntry(true))
				}
			}
			return k()
		})
	})
	f := &p.frames[len(p.frames)-1]
	// A false that never reached k is "e is unproductive here": cache it if
	// the evaluation was exhaustive (no abort) and context-free (no cycle
	// cut below the entry depth — Tarjan's lowlink condition). Branched
	// members need not be recorded: the failure covered all their digits.
	if !res && !kCalled && !p.aborted && f.minCut >= depth && len(e.prodMemo) < maxProdMemo {
		e.prodMemo = append(e.prodMemo, p.snapshotEntry(false))
	}
	e.onStack = false
	p.popFrame()
	return res
}

// snapshotEntry captures the top frame's external reads with their current
// digits (stable for the frame's lifetime: external means bound before it).
func (p *scanProg) snapshotEntry(result bool) prodEntry {
	f := &p.frames[len(p.frames)-1]
	ent := prodEntry{result: result}
	if len(f.reads) > 0 {
		ent.readSyms = append([]int32(nil), f.reads...)
		ent.readDigits = make([]int32, len(f.reads))
		for i, s := range f.reads {
			ent.readDigits[i] = p.asg[s]
		}
	}
	return ent
}

// chooseMembers extends the assignment over e's unassigned members — the ∃
// over the certificate digits that matter for e — and calls k under each
// combination until one succeeds. Successful bindings are kept (they are
// part of the witness); failures unwind the trail.
func (p *scanProg) chooseMembers(e *setEntry, i int, k func() bool) bool {
	if p.aborted {
		return false
	}
	for i < len(e.members) && p.asg[e.members[i]] >= 0 {
		i++
	}
	if i == len(e.members) {
		return k()
	}
	s := e.members[i]
	for d := int32(0); d < int32(p.counts[s]); d++ {
		if !p.charge(1) {
			return false
		}
		p.assign(s, d)
		if p.chooseMembers(e, i+1, k) {
			return true
		}
		p.unassign(s)
	}
	return false
}

// prodChildren AND-chains the required children of a joined atom: every item
// with a nonzero lower bound must be productive; optional items never
// constrain emptiness (zero occurrences satisfy them).
func (p *scanProg) prodChildren(items []joinItem, i int, k func() bool) bool {
	for i < len(items) {
		if lo, _ := items[i].mult.Bounds(); lo >= 1 {
			break
		}
		i++
	}
	if i == len(items) {
		return k()
	}
	return p.prod(items[i].child, func() bool { return p.prodChildren(items, i+1, k) })
}

// join computes (or replays) the k-way ⋈ of e's chosen atoms. The result
// depends exactly on the members' digits, which are recorded as reads and
// key the memo. Returns nil only when the budget aborts mid-computation.
func (p *scanProg) join(e *setEntry) *joinRes {
	if p.aborted {
		return nil
	}
	key := p.keyBuf[:0]
	for _, m := range e.members {
		if p.counts[m] > 1 {
			p.readDigit(m)
			d := p.asg[m]
			key = append(key, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
		}
	}
	p.keyBuf = key
	if r, ok := e.joinMemo[string(key)]; ok {
		return r
	}
	// Snapshot the key before computing: computeJoin interns child sets,
	// which reuses the shared scratch buffer backing key.
	ks := string(key)
	if !p.charge(1) {
		return nil
	}
	r := p.computeJoin(e)
	if r == nil {
		return nil
	}
	if e.joinMemo == nil {
		e.joinMemo = make(map[string]*joinRes, 4)
	}
	e.joinMemo[ks] = r
	return r
}

// computeJoin replicates joinAtoms over the flattened conjuncts of e's
// members in set order, decoding each member's digit into one atom per
// conjunct exactly as buildPi does.
func (p *scanProg) computeJoin(e *setEntry) *joinRes {
	var atoms []ctype.SAtom
	for _, m := range e.members {
		rem := int(p.asg[m])
		for _, d := range p.cnf[m] {
			atoms = append(atoms, d[rem%len(d)])
			rem /= len(d)
		}
	}
	if len(atoms) == 0 {
		return &joinRes{ok: true}
	}
	type jtuple struct {
		set    []int32
		mult   dtd.Mult
		covers [][2]int
	}
	tuples := []jtuple{{mult: dtd.Star}}
	for ai, a := range atoms {
		var next []jtuple
		for _, tp := range tuples {
			for ii, item := range a {
				if !p.charge(1) {
					return nil
				}
				set := append(append(make([]int32, 0, len(tp.set)+1), tp.set...), p.symOf[item.Sym])
				if _, ok := p.setTarget(set); !ok {
					continue
				}
				if !p.tupleValueCompatible(set) {
					continue
				}
				m := item.Mult
				if ai > 0 {
					m = joinMult(tp.mult, item.Mult)
				}
				covers := append(append(make([][2]int, 0, len(tp.covers)+1), tp.covers...), [2]int{ai, ii})
				next = append(next, jtuple{set: set, mult: m, covers: covers})
			}
		}
		tuples = next
		if len(tuples) == 0 {
			break
		}
	}
	covered := map[[2]int]bool{}
	for _, tp := range tuples {
		for _, c := range tp.covers {
			covered[c] = true
		}
	}
	for ai, a := range atoms {
		for ii, item := range a {
			if lo, _ := item.Mult.Bounds(); lo >= 1 && !covered[[2]int{ai, ii}] {
				return &joinRes{}
			}
		}
	}
	// Materialize the tuple sets, summing bounds of duplicates in first-
	// appearance order, as joinAtoms does by product-symbol name.
	type bounds struct{ lo, hi int }
	acc := map[*setEntry]*bounds{}
	var order []*setEntry
	for _, tp := range tuples {
		child := p.internSet(tp.set)
		if child == nil {
			return nil
		}
		if !child.ok {
			continue
		}
		lo, hi := tp.mult.Bounds()
		if b, ok := acc[child]; ok {
			b.lo += lo
			if b.hi < 0 || hi < 0 {
				b.hi = -1
			} else {
				b.hi += hi
			}
		} else {
			acc[child] = &bounds{lo, hi}
			order = append(order, child)
		}
	}
	r := &joinRes{ok: true, items: make([]joinItem, 0, len(order))}
	for _, child := range order {
		b := acc[child]
		var m dtd.Mult
		switch {
		case b.lo == 0 && b.hi == 1:
			m = dtd.Opt
		case b.lo == 1 && b.hi == 1:
			m = dtd.One
		case b.lo == 0 && b.hi < 0:
			m = dtd.Star
		case b.lo == 1 && b.hi < 0:
			m = dtd.Plus
		default:
			// Same condition that makes joinAtoms error: the reference scan
			// discards the whole certificate, so a witness through a
			// poisoned region must be re-checked (emptyScan falls back).
			p.poisoned = true
			return &joinRes{err: true}
		}
		r.items = append(r.items, joinItem{child: child, mult: m})
	}
	return r
}

// witnessIdx extends the found assignment to a full certificate (unreached
// symbols default to digit 0), in certificateSpace order.
func (p *scanProg) witnessIdx() []int {
	idx := make([]int, len(p.syms))
	for i, d := range p.asg {
		if d > 0 {
			idx[i] = int(d)
		}
	}
	return idx
}

// emptyScan runs the pruned search and converts its outcome into the
// three-valued verdict contract shared by Empty and EmptyBudgeted.
func (t *T) emptyScan(ctx context.Context, b *budget.B) (budget.Tri, error) {
	if t.MayBeEmpty {
		return budget.No, nil
	}
	p := newScanProg(t, ctx, b)
	if p.dead {
		// Some symbol has a conjunct with no atoms: buildPi rejects every
		// certificate, so the reference scan is vacuously empty.
		return budget.Yes, nil
	}
	if p.solve() {
		if p.errFree {
			// No certificate of this T can hit the join bounds error, so the
			// reference build of the extended witness certificate cannot be
			// poisoned, and the productivity derivation already replicates the
			// reference joins exactly: the witness is final. This keeps the
			// blowup family's budgeted cost linear (E21) — its content models
			// are all-Star — where the confirmation below would reintroduce
			// the exponential root-set product.
			return budget.No, nil
		}
		// Confirm the witness through the reference construction, on the
		// caller's budget (the full T_π build can dwarf the pruned search).
		// This guards the poisoning asymmetry: the reference scan discards
		// a whole certificate when any join in it errors, even joins
		// outside the productive root set.
		pi, err := t.buildPi(p.syms, p.witnessIdx(), b)
		if err != nil {
			return triFromScan(ctx, b)
		}
		if pi != nil && !pi.Empty() {
			return budget.No, nil
		}
		return t.emptySequentialBudgeted(ctx, p.syms, p.counts, b)
	}
	// No witness: safe even if some region was poisoned — the search is
	// strictly more permissive than the reference scan (a join error kills
	// one set evaluation here but a whole certificate there), so "no witness
	// here" implies "every certificate empty there".
	return triFromScan(ctx, b)
}
