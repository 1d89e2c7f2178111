package sim

import (
	"rocktm/internal/cps"
	"rocktm/internal/obs"
)

// CPS bit values used inside the simulator core; they are numerically
// identical to the cps package's bits (asserted by tests) but kept as plain
// uint32 so the hot paths stay allocation- and conversion-free.
const (
	exogBit  = uint32(cps.EXOG)
	cohBit   = uint32(cps.COH)
	tccBit   = uint32(cps.TCC)
	instBit  = uint32(cps.INST)
	precBit  = uint32(cps.PREC)
	asyncBit = uint32(cps.ASYNC)
	sizBit   = uint32(cps.SIZ)
	ldBit    = uint32(cps.LD)
	stBit    = uint32(cps.ST)
	ctiBit   = uint32(cps.CTI)
	fpBit    = uint32(cps.FP)
	uctiBit  = uint32(cps.UCTI)
)

// txnState is the per-strand checkpoint state of an in-flight hardware
// transaction.
type txnState struct {
	active bool
	doomed uint32 // pending failure reasons, delivered at next instruction
	cpsReg uint32 // CPS register: reasons for the most recent failure

	marked []int32 // lines transactionally marked in this attempt

	storeAddrs []Addr
	storeVals  []Word
	bankCount  [2]int

	// fwd indexes storeAddrs by address (latest entry wins) so TxLoad's
	// read-own-writes forwarding is O(1) instead of a queue scan; lineSet
	// holds the distinct lines in the store queue (entries coalesce at
	// line granularity) so TxStore's bank-occupancy check is O(1) too.
	// Both clear in O(1) via epoch bump at TxBegin.
	fwd     *u32map
	lineSet *u32map

	deferred       int
	lastLoadMissed bool

	// Same-line fast path for TxLoad: the line validated by the previous
	// full-path TxLoad of this attempt, its L1 slot, and the page
	// generation observed then. A repeat load of the same line (runs of
	// field accesses on one node) can skip translation, the fill scan, the
	// mark and the conflict broadcast — see TxLoad for the invariants.
	lastLine int32
	lastIdx  int32
	lastGen  uint32

	reads, writes int
	upgrades      int // lines read first, written later
	stackWrites   int

	// Non-default HTM design state (Config.HTM); all three stay zero under
	// the Rock default. sticky counts marked-line displacements absorbed by
	// the sticky overflow set this attempt; rolledBack counts undo-log
	// entries a remote conflict already restored under eager version
	// management (their LogWrite cost is charged when the abort is
	// delivered); ts is the machine-wide begin sequence number timestamp
	// arbitration orders transactions by.
	sticky     int
	rolledBack int
	ts         uint64
}

// TxBegin takes a register checkpoint and enters transactional execution
// (the chkpt instruction). Nesting is not supported — Rock flattens by
// failing, we panic because it is a programming error in this codebase.
func (s *Strand) TxBegin() {
	if s.tx.active {
		panic("sim: nested TxBegin")
	}
	s.advance(s.m.cfg.Costs.Chkpt)
	if s.yieldPending {
		return
	}
	t := &s.tx
	t.active = true
	t.doomed = 0
	t.marked = t.marked[:0]
	t.storeAddrs = t.storeAddrs[:0]
	t.storeVals = t.storeVals[:0]
	t.fwd.reset()
	t.lineSet.reset()
	t.bankCount[0], t.bankCount[1] = 0, 0
	t.deferred = 0
	t.lastLoadMissed = false
	t.lastLine = -1
	t.sticky = 0
	t.rolledBack = 0
	// The begin timestamp advances on every attempt regardless of design:
	// it is host state only (no cycles, no RNG draws), so the Resolve knob
	// never perturbs the default design's streams.
	t.ts = s.m.txSeq
	s.m.txSeq++
	// Transactional translations move the micro-DTLB head, so the
	// non-transactional same-line cache cannot survive the transaction.
	s.ntLine = -1
	t.reads, t.writes, t.upgrades, t.stackWrites = 0, 0, 0, 0
	s.m.activeMask |= s.bit
	s.m.cohDoom &^= s.bit
	s.stats.TxBegins++
	if s.trc != nil {
		s.trc.Record(s.id, s.clock, obs.EvTxBegin, 0)
	}
	if s.win != nil {
		s.win.SinkEvent(s.id, s.clock, obs.EvTxBegin, 0)
	}
}

// TxActive reports whether a transaction is in flight.
func (s *Strand) TxActive() bool { return s.tx.active }

// CPS returns the Checkpoint Status register: the reason bits of the most
// recent transaction failure. With a nonzero ExogProb, intervening code may
// have invalidated the register, in which case EXOG is reported instead —
// exactly the smattering of EXOG the paper sees in every test.
func (s *Strand) CPS() cps.Bits {
	if s.tx.cpsReg != 0 && s.m.cfg.ExogProb > 0 && s.rng.Chance(s.m.cfg.ExogProb) {
		return cps.EXOG
	}
	return cps.Bits(s.tx.cpsReg)
}

// txAbort rolls back the in-flight transaction for the given reasons:
// speculative stores are discarded, transactional marks are cleared, and
// the CPS register is loaded. Any pending doom reasons are folded in.
func (s *Strand) txAbort(reason uint32) {
	t := &s.tx
	reason |= t.doomed
	t.doomed = 0
	if s.m.cohDoom&s.bit != 0 {
		// A load-conflict broadcast (loadConflict's single mask op) doomed
		// us since the last delivery point; fold it in as COH, exactly as
		// the per-strand doom call used to.
		reason |= cohBit
		s.m.cohDoom &^= s.bit
	}
	s.m.activeMask &^= s.bit
	t.cpsReg = reason
	// Eager version management: restore memory from the undo log (a remote
	// conflict may have already unrolled part or all of it — rolledBack —
	// in which case only the restore *cost* remains to be charged here).
	var rolled int
	if s.m.vmEager {
		rolled = t.rollbackUndo(s.m.mem) + t.rolledBack
		t.rolledBack = 0
	}
	if s.trc != nil {
		s.trc.Record(s.id, s.clock, obs.EvTxAbort, uint64(reason))
	}
	if s.win != nil {
		s.win.SinkEvent(s.id, s.clock, obs.EvTxAbort, uint64(reason))
	}
	for _, line := range t.marked {
		s.m.mem.lines[line].marked &^= s.bit
		s.m.mem.lines[line].written &^= s.bit
		s.l1.clearMark(line)
	}
	t.marked = t.marked[:0]
	t.storeAddrs = t.storeAddrs[:0]
	t.storeVals = t.storeVals[:0]
	t.active = false
	s.stats.TxAborts++
	// A small seeded jitter on the flush penalty models pipeline-timing
	// variability; without it, symmetric transactions retrying in lockstep
	// can doom each other in a perfectly periodic ring forever, which even
	// Rock's "requester wins" policy does not quite manage.
	s.clock += s.m.cfg.Costs.AbortPenalty + int64(rolled)*s.m.cfg.Costs.LogWrite + int64(s.rng.Next()&7)
}

// TxAbortTrap executes an always-taken trap instruction, the software
// convention for explicitly aborting a transaction (ta %xcc, %g0 + 15);
// the CPS register reports TCC.
func (s *Strand) TxAbortTrap() {
	if !s.tx.active {
		panic("sim: TxAbortTrap outside transaction")
	}
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return
	}
	s.txAbort(tccBit)
}

// checkDoom delivers any pending asynchronous failure — per-strand doom
// reasons or a bit in the machine-wide load-conflict broadcast mask. It
// reports whether the transaction was aborted.
func (s *Strand) checkDoom() bool {
	if s.tx.doomed != 0 || s.m.cohDoom&s.bit != 0 {
		s.txAbort(0)
		return true
	}
	return false
}

// TxLoad performs a transactional load. It returns ok=false if the load
// aborted the transaction (the caller must unwind to the fail address).
func (s *Strand) TxLoad(a Addr) (w Word, ok bool) {
	if !s.tx.active {
		panic("sim: TxLoad outside transaction")
	}
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return 0, false
	}
	s.stats.Loads++
	if s.flt != nil {
		s.flt.onTxAccess(s) // injected ASYNC/COH dooms, delivered below
	}
	if s.checkDoom() {
		return 0, false
	}
	t := &s.tx
	line := LineOf(a)
	p := PageOf(a)

	// Same-line fast path: a repeat load of the line the previous
	// full-path TxLoad validated. The intact slot tag proves no store
	// invalidated or displaced the line since then (a marked line cannot
	// leave the L1 without dooming or aborting us), so: the page is still
	// at the micro-DTLB head (a head hit mutates nothing), the line is
	// still marked (marking again is a no-op), and every writer bit in the
	// directory entry predates the install and was already doomed by its
	// conflict broadcast. An empty store queue rules out forwarding, and a
	// hit cannot change the deferred count or doom anybody, so the only
	// state the slow path would touch is the L1 LRU tick, the age stamp
	// and the hit latency — replicated here exactly.
	if line == t.lastLine && len(t.storeAddrs) == 0 &&
		s.l1.slots[t.lastIdx].tag == line+1 &&
		s.m.mem.pages[p].gen == t.lastGen {
		c := s.l1
		c.tick++
		c.slots[t.lastIdx].age = c.tick
		s.clock += s.m.cfg.Costs.L1Hit
		t.lastLoadMissed = false
		t.reads++
		return s.m.mem.words[a], true
	}

	pg := &s.m.mem.pages[p]
	// Translation: a load whose page has no hardware-walkable mapping takes
	// a precise exception, aborting with LD|PREC (Section 3, "tlb misses").
	// (As in translateLoad, the old code re-probed the micro TLB after a
	// hit at either level; the re-probe never mutates state, so the split
	// below is state-identical.)
	if !s.mmu.micro.lookup(p, pg.gen) {
		if !s.mmu.main.lookup(p, pg.gen) {
			if !pg.walkable {
				s.txAbort(ldBit | precBit)
				return 0, false
			}
			s.clock += s.m.cfg.Costs.TLBWalk
			s.stats.TLBWalks++
			s.mmu.main.fill(p, pg.gen)
		}
		s.mmu.micro.fill(p, pg.gen)
	}

	// Read-own-writes: forward from the store queue if present (fwd maps
	// each address to its latest queue entry, so this matches the old
	// backwards scan's youngest-store-wins exactly). Under eager version
	// management fwd is never populated — own writes are already in memory
	// — so the probe falls through to the ordinary read.
	if len(t.storeAddrs) > 0 {
		if i, ok := t.fwd.get(uint32(a)); ok {
			s.clock += s.m.cfg.Costs.L1Hit
			t.lastLoadMissed = false
			t.reads++
			return t.storeVals[i], true
		}
	}

	// Committer-wins / timestamp resolution arbitrates against active
	// writers before the line is filled (the NACK stall may yield the
	// baton, so it must run while this access holds no L1 slot state).
	if s.m.resolve != ResRequesterWins && !s.resolveArb(line, false) {
		return 0, false
	}

	hit, evictedMarked, idx := s.fill(line)
	if evictedMarked {
		// A transactionally marked line left the L1 and the design did not
		// absorb it into a sticky overflow set: the read set can no longer
		// be tracked (CPS=LD; LD|SIZ when a sticky set itself overflowed).
		s.txAbort(s.evictAbortReason())
		return 0, false
	}
	if !hit {
		t.deferred += s.m.cfg.DeferPerMiss
		if t.deferred > s.m.defQueue {
			// Too many instructions deferred waiting on cache fills
			// (CPS=SIZ). The fill above already happened, so a retry
			// finds the data closer — the effect behind "additional
			// retries served to bring needed data into the cache"
			// (Section 6).
			s.txAbort(sizBit)
			return 0, false
		}
		// Only a miss can doom us mid-access (the fill's L2 eviction may
		// back-invalidate a line we hold marked); on a hit nothing ran
		// since the checkDoom above.
		if s.checkDoom() {
			return 0, false
		}
	}
	// Mark the line and broadcast the load conflict off one directory
	// deref (fill guarantees idx holds the line — see fill). Under lazy
	// detection there is no broadcast: the conflict surfaces when a
	// committer's drain invalidates this mark.
	lm := &s.m.mem.lines[line]
	if lm.marked&s.bit == 0 {
		lm.marked |= s.bit
		t.marked = append(t.marked, line)
	}
	s.l1.mark(idx)
	if !s.m.detLazy {
		s.loadConflict(lm)
	}
	t.lastLine, t.lastIdx, t.lastGen = line, int32(idx), pg.gen
	t.lastLoadMissed = !hit
	t.reads++
	return s.m.mem.words[a], true
}

// TxStore performs a transactional store: the value is gated in the store
// queue until commit. It returns false if the store aborted the
// transaction.
func (s *Strand) TxStore(a Addr, w Word) bool {
	if !s.tx.active {
		panic("sim: TxStore outside transaction")
	}
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return false
	}
	s.stats.Stores++
	if s.flt != nil {
		s.flt.onTxAccess(s) // injected ASYNC/COH dooms, delivered below
	}
	if s.checkDoom() {
		return false
	}
	t := &s.tx
	p := PageOf(a)
	pg := &s.m.mem.pages[p]
	if s.flt != nil {
		// An injected TLB shootdown evicts p's micro-DTLB entry here, so
		// the translation check below misses and aborts with ST organically.
		s.flt.onTxStorePage(s, p)
	}

	// Micro-DTLB check. A miss aborts with CPS=ST; the failing access
	// generates an MMU request, so if a higher-level mapping exists the
	// micro-TLB is warmed and a retry succeeds. If no mapping exists at
	// all, only software warmup (dummy CAS) will help (Section 3.1).
	if !s.mmu.micro.lookup(p, pg.gen) {
		if pg.walkable {
			if !s.mmu.main.lookup(p, pg.gen) {
				s.mmu.main.fill(p, pg.gen)
			}
			s.mmu.micro.fill(p, pg.gen)
		}
		s.txAbort(stBit)
		return false
	}
	if !pg.writable {
		// No write permission; the OS cannot run inside a transaction.
		s.txAbort(stBit)
		return false
	}

	// A store whose address depends on an outstanding load miss also
	// reports ST (Section 3.1); the line request is already in flight, so
	// retries usually succeed.
	if t.lastLoadMissed && s.rng.Chance(s.m.cfg.StoreAfterMissProb) {
		t.lastLoadMissed = false
		s.txAbort(stBit)
		return false
	}
	t.lastLoadMissed = false

	line := LineOf(a)
	// Committer-wins / timestamp resolution arbitrates against every
	// active marker before the line is filled (see TxLoad).
	if s.m.resolve != ResRequesterWins && !s.resolveArb(line, true) {
		return false
	}
	// Stores are gated in the store queue, so a store miss does not defer
	// dependent instructions the way a load miss does; it only pays the
	// ownership-request latency.
	hit, evictedMarked, idx := s.fill(line)
	if evictedMarked {
		s.txAbort(s.evictAbortReason())
		return false
	}
	// As in TxLoad, only a miss (whose L2 eviction may back-invalidate a
	// marked line of ours) can doom us since the entry checkDoom.
	if !hit && s.checkDoom() {
		return false
	}

	// Store queue: entries coalesce at cache-line granularity (which is
	// why the paper's overflow test stores to 33 *different* lines), and
	// two banks are selected by a line-address bit; per-bank overflow
	// aborts with ST|SIZ (the Section 3 "overflow" test). Eager version
	// management bypasses the store queue entirely — its write-set bound
	// is the undo log, which this model does not cap.
	if !s.m.vmEager {
		if _, seen := t.lineSet.get(uint32(line)); !seen {
			t.lineSet.put(uint32(line), 0)
			bank := int(line & 1)
			t.bankCount[bank]++
			if t.bankCount[bank] > s.m.sqPerBank {
				s.txAbort(stBit | sizBit)
				return false
			}
		}
	}

	// Mark, record the write and request exclusive ownership off one
	// directory deref (fill guarantees idx holds the line).
	lm := &s.m.mem.lines[line]
	if lm.marked&s.bit != 0 && lm.written&s.bit == 0 {
		t.upgrades++
	}
	if lm.marked&s.bit == 0 {
		lm.marked |= s.bit
		t.marked = append(t.marked, line)
	}
	s.l1.mark(idx)
	lm.written |= s.bit

	// Eager detection: demand exclusive ownership now. Under the default
	// requester-wins resolution this dooms every other transaction that
	// has the line marked; under committer-wins/timestamp the arbitration
	// above already cleared (or lost to) every transactional holder, so
	// this only strips non-transactional copies. Lazy detection defers the
	// ownership request to the commit drain.
	if !s.m.detLazy {
		s.storeInvalidate(line, lm)
	}

	if s.m.vmEager {
		// Eager version management: write memory in place, logging the
		// previous value for rollback. Every store appends an entry (no
		// coalescing — the log is a sequential record).
		s.clock += s.m.cfg.Costs.LogWrite
		t.storeAddrs = append(t.storeAddrs, a)
		t.storeVals = append(t.storeVals, s.m.mem.words[a])
		s.m.mem.write(a, w)
	} else {
		t.storeAddrs = append(t.storeAddrs, a)
		t.storeVals = append(t.storeVals, w)
		t.fwd.put(uint32(a), int32(len(t.storeVals)-1))
	}
	t.writes++
	return true
}

// TxBranch models a conditional branch inside the transaction. If the
// predicate depends on the immediately preceding load and that load missed,
// the branch may execute before the load resolves, aborting with CPS=UCTI
// (the R2 bit added after the authors' R1 feedback). An ordinary
// mispredicted branch may abort with CPS=CTI. Returns false on abort.
func (s *Strand) TxBranch(pc uint32, taken bool, dependsOnLoad bool) bool {
	if !s.tx.active {
		panic("sim: TxBranch outside transaction")
	}
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return false
	}
	if s.checkDoom() {
		return false
	}
	t := &s.tx
	if dependsOnLoad && t.lastLoadMissed && s.rng.Chance(s.m.cfg.UCTIAbortProb) {
		t.lastLoadMissed = false
		// Misspeculation past an unresolved branch: the CPS may carry a
		// misleading companion reason (the very problem UCTI was added to
		// flag); we occasionally set INST to model it.
		reason := uctiBit
		if s.rng.Chance(0.25) {
			reason |= instBit
		}
		s.bp.predict(pc, taken) // predictor still trains
		s.txAbort(reason)
		return false
	}
	t.lastLoadMissed = false
	if s.bp.predict(pc, taken) {
		s.stats.Mispredicts++
		s.clock += s.m.cfg.Costs.Mispredict
		if s.rng.Chance(s.m.cfg.CTIAbortProb) {
			s.txAbort(ctiBit)
			return false
		}
	}
	return true
}

// TxSaveRestore models a function call's register-window save/restore pair,
// which Rock does not support inside transactions: the transaction fails
// with CPS=INST (Sections 3 and 7).
func (s *Strand) TxSaveRestore() bool {
	if !s.tx.active {
		panic("sim: TxSaveRestore outside transaction")
	}
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return false
	}
	s.txAbort(instBit)
	return false
}

// TxUnsupported models any other instruction unsupported in transactions.
func (s *Strand) TxUnsupported() bool {
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return false
	}
	s.txAbort(instBit)
	return false
}

// TxDiv models a divide instruction, unsupported inside transactions
// (CPS=FP) — the reason the Java Hashtable benchmark factored a divide out
// of its hash function (Section 7.2).
func (s *Strand) TxDiv() bool {
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return false
	}
	s.txAbort(fpBit)
	return false
}

// TxTrap models a conditional trap: if taken the transaction aborts with
// CPS=TCC; if not taken execution continues.
func (s *Strand) TxTrap(taken bool) bool {
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return false
	}
	if taken {
		s.txAbort(tccBit)
		return false
	}
	return true
}

// TxExec models executing code on the given page inside the transaction; an
// ITLB miss takes a precise exception (CPS=PREC).
func (s *Strand) TxExec(codePage int32) bool {
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return false
	}
	if s.checkDoom() {
		return false
	}
	pg := &s.m.mem.pages[codePage]
	if !s.mmu.itlb.lookup(codePage, pg.gen) {
		s.txAbort(precBit)
		return false
	}
	return true
}

// TxStackWrite models a store to the thread's stack inside the transaction
// (counted for Section 6.1 profiling; it consumes no store-queue entry in
// this model, a documented divergence).
func (s *Strand) TxStackWrite() {
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return
	}
	s.tx.stackWrites++
}

// TxCommit attempts to commit: the gated stores drain to memory atomically.
// It reports whether the transaction committed; on false the CPS register
// holds the failure reasons.
func (s *Strand) TxCommit() bool {
	if !s.tx.active {
		panic("sim: TxCommit outside transaction")
	}
	t := &s.tx
	commitCost := s.m.cfg.Costs.CommitBase
	if !s.m.vmEager {
		// Eager version management commits in constant time — the data is
		// already in place; only the lazy designs pay the per-store drain.
		commitCost += int64(len(t.storeAddrs)) * s.m.cfg.Costs.CommitPerStore
	}
	s.advance(commitCost)
	if s.yieldPending {
		return false
	}
	if s.checkDoom() {
		return false
	}
	drained := len(t.storeAddrs)
	if !s.m.vmEager {
		// Drain the store queue. Under lazy conflict detection this drain
		// *is* the arbitration: each storeInvalidate dooms every other
		// transaction holding the line marked, so the first committer wins
		// and its victims see COH at their next delivery point.
		for i, a := range t.storeAddrs {
			line := LineOf(a)
			s.storeInvalidate(line, &s.m.mem.lines[line])
			s.m.mem.write(a, t.storeVals[i])
		}
	}
	for _, line := range t.marked {
		s.m.mem.lines[line].marked &^= s.bit
		s.m.mem.lines[line].written &^= s.bit
		s.l1.clearMark(line)
	}
	t.marked = t.marked[:0]
	t.storeAddrs = t.storeAddrs[:0]
	t.storeVals = t.storeVals[:0]
	t.active = false
	s.m.activeMask &^= s.bit
	t.cpsReg = 0
	s.stats.TxCommits++
	if s.trc != nil {
		s.trc.Record(s.id, s.clock, obs.EvTxCommit, uint64(drained))
	}
	if s.win != nil {
		s.win.SinkEvent(s.id, s.clock, obs.EvTxCommit, uint64(drained))
	}
	return true
}

// ---- Profiling accessors (Section 6.1 failure analysis) ----

// TxReadSetLines returns the cache lines currently transactionally marked
// (read or written) by the in-flight or just-committed attempt. The slice
// is a copy.
func (s *Strand) TxReadSetLines() []int32 {
	out := make([]int32, len(s.tx.marked))
	copy(out, s.tx.marked)
	return out
}

// TxWriteAddrs returns the addresses in the store queue (a copy).
func (s *Strand) TxWriteAddrs() []Addr {
	out := make([]Addr, len(s.tx.storeAddrs))
	copy(out, s.tx.storeAddrs)
	return out
}

// TxCounts returns (reads, writes, upgrades, stackWrites) for the current
// attempt.
func (s *Strand) TxCounts() (reads, writes, upgrades, stackWrites int) {
	return s.tx.reads, s.tx.writes, s.tx.upgrades, s.tx.stackWrites
}

// MarkedInSet returns how many ways of the L1 set that line maps to are
// currently transactionally marked.
func (s *Strand) MarkedInSet(line int32) int { return s.l1.markedCountInSet(line) }

// L1Sets returns the number of L1 sets (for profiling tools).
func (s *Strand) L1Sets() int { return s.l1.sets }
