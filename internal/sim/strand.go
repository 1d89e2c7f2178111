package sim

import (
	"fmt"
	"math/bits"

	"rocktm/internal/obs"
)

// Stats accumulates per-strand event counts for a run.
type Stats struct {
	Loads       uint64
	Stores      uint64
	CASes       uint64
	L1Misses    uint64
	L2Misses    uint64
	Mispredicts uint64
	TLBWalks    uint64
	PageFaults  uint64
	TxBegins    uint64
	TxCommits   uint64
	TxAborts    uint64
}

// Sample returns the counters as a metrics-registry sample — the thin
// compatibility accessor through which strand statistics publish into the
// unified obs.Registry.
func (st Stats) Sample() obs.Sample {
	return obs.Sample{Counters: []obs.NamedValue{
		{Name: "loads", Value: st.Loads},
		{Name: "stores", Value: st.Stores},
		{Name: "cases", Value: st.CASes},
		{Name: "l1_misses", Value: st.L1Misses},
		{Name: "l2_misses", Value: st.L2Misses},
		{Name: "mispredicts", Value: st.Mispredicts},
		{Name: "tlb_walks", Value: st.TLBWalks},
		{Name: "page_faults", Value: st.PageFaults},
		{Name: "tx_begins", Value: st.TxBegins},
		{Name: "tx_commits", Value: st.TxCommits},
		{Name: "tx_aborts", Value: st.TxAborts},
	}}
}

// Strand is one simulated hardware strand. All of its methods must be
// called from the body Machine.Run is running on it (on the pooled worker
// coroutine the run lent to this strand); the baton discipline then
// guarantees mutual exclusion over all shared simulator state without
// locks.
type Strand struct {
	m   *Machine
	id  int
	bit uint64

	clock  int64
	parked bool

	// Coroutine plumbing, owned by Machine.Run: w is the pooled worker
	// lent to this strand for one Run call, and yield (set by the worker
	// while it runs this strand's body) suspends the body and returns
	// control to the driver loop.
	w     *worker
	yield func(struct{}) bool

	// yieldLimit is the cached scheduling deadline, maintained by
	// Machine.grant whenever this strand receives the baton: once clock
	// exceeds it, the strand has run a full quantum ahead of the laggard
	// and must hand the baton over. While the strand runs nothing else can
	// touch the parked heap, so the hot-path check is one compare.
	yieldLimit int64
	// limit folds every per-advance deadline — yieldLimit, the next
	// interrupt delivery, and the MaxCycles guard — into one value, so the
	// inlined advance fast path is a single compare. advanceSlow sorts out
	// which deadline actually fired and recomputes the fold.
	limit int64

	// Continuation-driver state (Machine.RunStepped). stepped marks the
	// strand as driven by a step body: crossing yieldLimit records a
	// pending yield and returns to the caller instead of switching stacks.
	// When a yield fires mid-operation, yieldPending tells the operation to
	// bail out before any side effect, and chargeDebt remembers the advance
	// charge the driver must undo before re-invoking the step body — the
	// re-invoked operation re-charges it, so parking keys and resumed
	// clocks are bit-identical to the coroutine driver's.
	stepped      bool
	yieldPending bool
	chargeDebt   int64
	stepFn       StepFn

	rng rng
	l1  *l1Cache
	mmu mmu
	bp  *branchPredictor

	// flt, when non-nil, injects deterministic faults into transactional
	// accesses (see FaultPlan). It is nil unless the machine config enables
	// a probabilistic fault, so fault-free runs pay one nil check per
	// transactional access and draw no extra randomness.
	flt *faultInjector

	nextInterrupt int64

	// Non-transactional same-line fast path: the line validated by the
	// previous non-transactional access, its L1 slot, and the page
	// generation observed then. When the next access targets the same line
	// and the slot tag and generation still match, translation (the page is
	// provably at the micro-DTLB head, where a hit mutates nothing) and the
	// L1 tag scan are skipped; the fast path replicates exactly the state
	// the slow path would produce (LRU tick, age stamp, latency). Any
	// transactional execution invalidates the cache (TxBegin), because
	// transactional translations move the micro-DTLB head.
	ntLine int32
	ntIdx  int32
	ntGen  uint32

	tx txnState

	stats Stats

	// trc, when non-nil, receives cycle-timestamped trace events. The only
	// cost with tracing disabled is one nil-check at each hook point;
	// recording itself charges no cycles, consumes no simulated randomness
	// and allocates nothing, so traced runs are cycle-identical to untraced
	// ones.
	trc *obs.Tracer

	// win, when non-nil, receives the same hook-point stream as trc but as
	// a streaming fold (the windowed timeseries recorder). Same contract,
	// same nil-check-only cost when detached; both may be attached at once.
	win obs.EventSink
}

func newStrand(m *Machine, id int) *Strand {
	s := &Strand{
		m:      m,
		id:     id,
		bit:    1 << uint(id),
		rng:    newRNG(m.cfg.Seed*0x9e3779b9 + uint64(id)*0x85ebca77 + 1),
		l1:     newL1(m.cfg.L1Sets, m.cfg.L1Ways),
		bp:     newBranchPredictor(),
		ntLine: -1,
	}
	s.mmu.init(m.cfg.MicroDTLB, m.cfg.MainDTLB, m.cfg.ITLB)
	s.flt = newFaultInjector(&m.cfg, id)
	s.tx.fwd = newU32Map()
	s.tx.lineSet = newU32Map()
	if m.cfg.InterruptEvery > 0 {
		s.nextInterrupt = m.cfg.InterruptEvery
	}
	return s
}

// release empties the strand's L1, TLBs and predictor and shelves their
// arrays (Machine.Recycle).
func (s *Strand) release() {
	s.l1.release()
	s.mmu.release()
	s.bp.release()
}

// ID returns the strand number, in [0, Strands).
func (s *Strand) ID() int { return s.id }

// Clock returns the strand's virtual time in cycles.
func (s *Strand) Clock() int64 { return s.clock }

// Machine returns the owning machine.
func (s *Strand) Machine() *Machine { return s.m }

// Mem returns the shared simulated memory.
func (s *Strand) Mem() *Memory { return s.m.mem }

// Stats returns a copy of the strand's event counters.
func (s *Strand) Stats() Stats { return s.stats }

// TraceEvent records a software-level trace event (lock acquire/release,
// TM phase transitions, software fallbacks) into the machine's tracer, if
// one is attached. It charges no cycles and perturbs no simulator state, so
// instrumented and uninstrumented code run cycle-identically.
func (s *Strand) TraceEvent(kind obs.EventKind, arg uint64) {
	if s.trc != nil {
		s.trc.Record(s.id, s.clock, kind, arg)
	}
	if s.win != nil {
		s.win.SinkEvent(s.id, s.clock, kind, arg)
	}
}

// Rand returns 64 deterministic pseudo-random bits.
func (s *Strand) Rand() uint64 { return s.rng.Next() }

// RandIntn returns a deterministic uniform value in [0, n).
func (s *Strand) RandIntn(n int) int { return s.rng.Intn(n) }

// Advance charges n cycles of pure compute (no memory traffic).
func (s *Strand) Advance(n int64) { s.advance(n) }

// YieldPending reports whether the last simulated operation was interrupted
// by a pending yield under the continuation driver (Machine.RunStepped).
// When true, the operation performed no side effect beyond its (soon to be
// undone) cycle charge and its zero-value results are meaningless; the step
// body must return control to the driver and re-invoke the same operation
// when resumed. Always false under the coroutine driver.
func (s *Strand) YieldPending() bool { return s.yieldPending }

// advance is the per-event hot path: it is small enough to inline into
// every memory-operation method, so the common case costs one add and one
// compare. The checks the old per-advance code did unconditionally
// (MaxCycles guard, interrupt delivery, yield) all trigger only once clock
// passes a known deadline, so they fold into the single cached limit.
func (s *Strand) advance(n int64) {
	s.clock += n
	if s.clock > s.limit {
		s.advanceSlow(n)
	}
}

// advanceSlow handles a crossed deadline, in the same order the checks ran
// when they were unconditional: MaxCycles guard, interrupt delivery, yield.
// n is the charge the enclosing advance just applied; under the
// continuation driver a yield records it as chargeDebt so the driver can
// undo it before re-invoking the interrupted operation.
func (s *Strand) advanceSlow(n int64) {
	if s.yieldPending {
		// Tripwire for a step-body discipline bug: a simulated operation ran
		// after an earlier operation already recorded a pending yield.
		panic(fmt.Sprintf("sim: strand %d performed a simulated operation past a pending yield", s.id))
	}
	if max := s.m.cfg.MaxCycles; max > 0 && s.clock > max {
		panic(fmt.Sprintf("sim: strand %d exceeded MaxCycles=%d (virtual livelock?)", s.id, max))
	}
	if s.nextInterrupt > 0 && s.clock >= s.nextInterrupt {
		s.nextInterrupt = s.clock + s.m.cfg.InterruptEvery
		if s.tx.active {
			s.tx.doomed |= asyncBit
		}
	}
	if s.clock > s.yieldLimit {
		if s.stepped {
			// Continuation driver: record the yield and the charge to undo;
			// the interrupted operation bails out before any side effect and
			// control returns to RunStepped's loop through ordinary returns.
			s.yieldPending = true
			s.chargeDebt = n
			return
		}
		// The driver's grant() recomputes the folded limit (after any
		// nextInterrupt update above) when it resumes us, so there is
		// nothing left to refresh here.
		s.yieldBaton()
		return
	}
	s.recomputeLimit()
}

// recomputeLimit refreshes the folded advance deadline after any of its
// inputs (yieldLimit, nextInterrupt) changed.
func (s *Strand) recomputeLimit() {
	lim := s.yieldLimit
	if s.nextInterrupt > 0 && s.nextInterrupt-1 < lim {
		lim = s.nextInterrupt - 1
	}
	if max := s.m.cfg.MaxCycles; max > 0 && max < lim {
		lim = max
	}
	s.limit = lim
}

// yieldBaton hands the baton back to Machine.Run's driver loop once we
// have run a full quantum ahead of the laggard; the driver parks this
// strand and resumes the laggard. The call returns when the driver next
// resumes us.
func (s *Strand) yieldBaton() {
	s.yield(struct{}{})
}

// ---- Translation ----

// translateLoad services address translation for a load outside a
// transaction (page faults are taken and serviced by the simulated OS).
func (s *Strand) translateLoad(a Addr) {
	p := PageOf(a)
	pg := &s.m.mem.pages[p]
	// A micro-DTLB hit resolves everything; a main-DTLB hit refills the
	// micro level; otherwise walk (or fault) and fill both. The old code
	// re-probed the micro TLB after a hit at either level; a lookup that
	// just hit mutates nothing on re-probe and a lookup that just missed
	// still misses, so skipping the re-probe is state-identical.
	if s.mmu.micro.lookup(p, pg.gen) {
		return
	}
	if s.mmu.main.lookup(p, pg.gen) {
		s.mmu.micro.fill(p, pg.gen)
		return
	}
	if !pg.walkable {
		s.pageFault(p, false)
	} else {
		s.clock += s.m.cfg.Costs.TLBWalk
		s.stats.TLBWalks++
	}
	s.mmu.main.fill(p, pg.gen)
	s.mmu.micro.fill(p, pg.gen)
}

// translateStore services translation for a store outside a transaction,
// including the write fault that first establishes write permission.
func (s *Strand) translateStore(a Addr) {
	p := PageOf(a)
	pg := &s.m.mem.pages[p]
	if !s.mmu.micro.lookup(p, pg.gen) {
		if !s.mmu.main.lookup(p, pg.gen) {
			if !pg.walkable {
				s.pageFault(p, true)
			} else {
				s.clock += s.m.cfg.Costs.TLBWalk
				s.stats.TLBWalks++
			}
			s.mmu.main.fill(p, pg.gen)
		}
		s.mmu.micro.fill(p, pg.gen)
	}
	if !pg.writable {
		s.pageFault(p, true)
	}
}

// pageFault has the simulated OS service a fault on page p.
func (s *Strand) pageFault(p int32, write bool) {
	pg := &s.m.mem.pages[p]
	if !pg.mapped {
		panic(fmt.Sprintf("sim: strand %d faulted on unallocated page %d", s.id, p))
	}
	s.clock += s.m.cfg.Costs.PageFault
	s.stats.PageFaults++
	pg.walkable = true
	if write {
		pg.writable = true
	}
}

// ---- Cache ----

// fill brings line into the strand's L1 (and the shared L2), charging the
// appropriate latency and maintaining the coherence directory. It reports
// whether the access hit in L1, whether a transactionally marked line was
// displaced to make room, and the slot now holding line — after fill the
// line is always resident (an L2 back-invalidation triggered by the fill
// can only target a different line), so callers need no re-lookup.
func (s *Strand) fill(line int32) (l1Hit bool, evictedMarked bool, idx int) {
	// L1-hit fast path: touch inlines here, so the common case is a masked
	// index, a short tag scan, and one latency charge.
	if i := s.l1.touch(line); i >= 0 {
		s.clock += s.m.cfg.Costs.L1Hit
		return true, false, i
	}
	return s.fillMiss(line)
}

// fillMiss services the L1 miss half of fill (the touch above already
// advanced the L1 LRU tick): pick a victim, consult the shared L2, and
// maintain the coherence directory.
func (s *Strand) fillMiss(line int32) (l1Hit bool, evictedMarked bool, idx int) {
	c := &s.m.cfg.Costs
	evicted, evMark, idx := s.l1.fillVictim(line)
	s.stats.L1Misses++
	if evicted != -1 {
		lm := &s.m.mem.lines[evicted]
		lm.present &^= s.bit
		if evMark {
			// A transactionally marked line was displaced. A sticky design
			// with budget left absorbs it — the directory marks survive in
			// the overflow set and the caller sees no eviction; otherwise
			// (always, under the default) the marks are dropped and the
			// caller aborts.
			evMark = !s.spillMarked(lm)
		} else {
			lm.marked &^= s.bit
			lm.written &^= s.bit
		}
	}
	l2hit, l2evicted := s.m.l2.access(line)
	if l2hit {
		s.clock += c.L2Hit
	} else {
		s.clock += c.MemAccess
		s.stats.L2Misses++
	}
	if l2evicted != -1 && l2evicted != line {
		s.backInvalidate(l2evicted)
	}
	// Every directory bit is set on a line some L1 holds, and every line
	// enters an L1 here, so this mark covers all directory writes.
	s.m.mem.touchLine(line)
	s.m.mem.lines[line].present |= s.bit
	return false, evMark, idx
}

// backInvalidate removes a line evicted from the inclusive L2 from every
// L1; transactions holding it marked abort with COH (Section 3's
// single-threaded "coherence" surprises).
func (s *Strand) backInvalidate(line int32) {
	lm := &s.m.mem.lines[line]
	// Folding marked into the scan mask is a no-op under the default design
	// (a marked line is always present — it cannot leave an L1 without
	// aborting its holder) but reaches sticky-set holders, whose marks
	// outlive their L1 copy; an L2 back-invalidation aborts them too, since
	// only L1 displacement is tolerated.
	if lm.present|lm.marked == 0 {
		return
	}
	// Iterate only the set bits (ascending strand ID, same order as the
	// old full scan) instead of all strands.
	for rest := lm.present | lm.marked; rest != 0; rest &= rest - 1 {
		t := s.m.strands[bits.TrailingZeros64(rest)]
		_, wasMarked := t.l1.invalidate(line)
		if wasMarked || lm.marked&t.bit != 0 {
			s.m.doomRemote(t, cohBit)
		}
	}
	lm.present = 0
	lm.marked = 0
	lm.written = 0
}

// storeInvalidate implements the exclusive-ownership request of a store:
// every other strand's copy of the line is invalidated, and — requester
// wins — every transaction holding it marked is doomed with COH. The
// caller passes the line's directory entry, which it invariably has in
// hand already, so the common no-sharers case is one mask test.
func (s *Strand) storeInvalidate(line int32, lm *lineMeta) {
	others := (lm.present | lm.marked) &^ s.bit
	if others == 0 {
		return
	}
	for rest := others; rest != 0; rest &= rest - 1 {
		t := s.m.strands[bits.TrailingZeros64(rest)]
		t.l1.invalidate(line)
		if lm.marked&t.bit != 0 {
			// doomRemote is exactly doom under the default design; under
			// eager version management it also unrolls the victim's undo
			// log before this access can observe memory.
			s.m.doomRemote(t, cohBit)
		}
	}
	lm.present &= s.bit
	lm.marked &= s.bit
	lm.written &= s.bit
}

// loadConflict dooms transactions holding line in their *write* set: their
// buffered store cannot coexist with our read (requester wins). The doom
// broadcast is a single mask operation into the machine-wide cohDoom word:
// masking with activeMask is exactly doom()'s tx.active test, and delivery
// still happens at the victims' next checkDoom point, which folds the bit
// into the CPS reasons just as per-strand dooming did.
func (s *Strand) loadConflict(lm *lineMeta) {
	if s.m.vmEager {
		// Eager version management cannot defer delivery behind a mask op:
		// the writers' in-place speculative values must be rolled back
		// before this load reads memory, so doom each victim directly.
		for rest := lm.written & s.m.activeMask &^ s.bit; rest != 0; rest &= rest - 1 {
			s.m.doomRemote(s.m.strands[bits.TrailingZeros64(rest)], cohBit)
		}
		return
	}
	s.m.cohDoom |= lm.written & s.m.activeMask &^ s.bit
}

// doom marks the strand's in-flight transaction (if any) as failed for the
// given CPS reason; the failure is delivered at its next transactional
// instruction or at commit.
func (s *Strand) doom(reason uint32) {
	if s.tx.active {
		s.tx.doomed |= reason
	}
}

// assertNoTxn guards against a modelling bug: ordinary (non-transactional)
// memory operations inside a hardware transaction would bypass the store
// queue and survive an abort.
func (s *Strand) assertNoTxn(op string) {
	if s.tx.active {
		panic("sim: " + op + " while a hardware transaction is active")
	}
}

// ---- Non-transactional memory operations ----

// ntHit reports whether a non-transactional access to line can take the
// same-line fast path: the previous non-transactional access touched this
// exact line (so its page is at the micro-DTLB head, where a lookup hit
// mutates nothing), the L1 slot still holds it (any cross-strand
// invalidation or back-invalidation clears the tag), and the page
// generation is unchanged (a Remap would make the head entry stale). When
// it fires, the caller replicates the slow path's only state changes: the
// L1 LRU tick, the age stamp, and the hit latency.
func (s *Strand) ntHit(line int32, p int32) bool {
	return line == s.ntLine && s.l1.slots[s.ntIdx].tag == line+1 &&
		s.m.mem.pages[p].gen == s.ntGen
}

// ntTouch applies the fast path's L1 state changes (what l1.touch does on
// a hit) and charges the hit latency.
func (s *Strand) ntTouch() {
	c := s.l1
	c.tick++
	c.slots[s.ntIdx].age = c.tick
	s.clock += s.m.cfg.Costs.L1Hit
}

// Load performs an ordinary (non-transactional) load.
func (s *Strand) Load(a Addr) Word {
	s.assertNoTxn("Load")
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return 0
	}
	s.stats.Loads++
	line := LineOf(a)
	p := PageOf(a)
	if s.ntHit(line, p) {
		s.ntTouch()
		// An intact tag means no store invalidated this line since the
		// access that installed it, so every writer bit in the directory
		// entry predates that access and was doomed by it already; the
		// loadConflict broadcast below is idempotent on them.
		s.loadConflict(&s.m.mem.lines[line])
		return s.m.mem.words[a]
	}
	s.translateLoad(a)
	_, _, idx := s.fill(line)
	s.loadConflict(&s.m.mem.lines[line])
	s.ntLine, s.ntIdx, s.ntGen = line, int32(idx), s.m.mem.pages[p].gen
	return s.m.mem.words[a]
}

// Store performs an ordinary (non-transactional) store. It invalidates all
// other cached copies and dooms any transaction that had the line marked.
func (s *Strand) Store(a Addr, w Word) {
	s.assertNoTxn("Store")
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return
	}
	s.stats.Stores++
	line := LineOf(a)
	p := PageOf(a)
	// The store fast path additionally requires write permission — without
	// it the slow path's translateStore takes a write fault first.
	if s.ntHit(line, p) && s.m.mem.pages[p].writable {
		s.ntTouch()
		s.storeInvalidate(line, &s.m.mem.lines[line])
		s.m.mem.write(a, w)
		return
	}
	s.translateStore(a)
	_, _, idx := s.fill(line)
	s.storeInvalidate(line, &s.m.mem.lines[line])
	s.ntLine, s.ntIdx, s.ntGen = line, int32(idx), s.m.mem.pages[p].gen
	s.m.mem.write(a, w)
}

// CAS performs an atomic compare-and-swap, returning the previous value and
// whether the swap happened. A CAS requests exclusive ownership whether or
// not it succeeds, so it dooms conflicting transactions either way — which
// is also why a "dummy CAS" (old == new == current value) is the idiom for
// warming the TLB and write permission without changing data (Section 3).
func (s *Strand) CAS(a Addr, old, new Word) (Word, bool) {
	s.assertNoTxn("CAS")
	s.advance(s.m.cfg.Costs.Op + s.m.cfg.Costs.CASExtra)
	if s.yieldPending {
		return 0, false
	}
	s.stats.CASes++
	line := LineOf(a)
	p := PageOf(a)
	if s.ntHit(line, p) && s.m.mem.pages[p].writable {
		s.ntTouch()
		s.storeInvalidate(line, &s.m.mem.lines[line])
	} else {
		s.translateStore(a)
		_, _, idx := s.fill(line)
		s.storeInvalidate(line, &s.m.mem.lines[line])
		s.ntLine, s.ntIdx, s.ntGen = line, int32(idx), s.m.mem.pages[p].gen
	}
	cur := s.m.mem.words[a]
	if cur != old {
		return cur, false
	}
	s.m.mem.write(a, new)
	return cur, true
}

// Add atomically adds delta to the word at a and returns the new value
// (a CAS loop in real code; modelled as one CAS-priced operation).
func (s *Strand) Add(a Addr, delta Word) Word {
	s.assertNoTxn("Add")
	s.advance(s.m.cfg.Costs.Op + s.m.cfg.Costs.CASExtra)
	if s.yieldPending {
		return 0
	}
	s.stats.CASes++
	line := LineOf(a)
	p := PageOf(a)
	if s.ntHit(line, p) && s.m.mem.pages[p].writable {
		s.ntTouch()
		s.storeInvalidate(line, &s.m.mem.lines[line])
	} else {
		s.translateStore(a)
		_, _, idx := s.fill(line)
		s.storeInvalidate(line, &s.m.mem.lines[line])
		s.ntLine, s.ntIdx, s.ntGen = line, int32(idx), s.m.mem.pages[p].gen
	}
	s.m.mem.write(a, s.m.mem.words[a]+delta)
	return s.m.mem.words[a]
}

// Branch models a conditional branch at the (arbitrary but stable) program
// counter pc with the given outcome, charging the mispredict penalty when
// the predictor is wrong.
func (s *Strand) Branch(pc uint32, taken bool) {
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return
	}
	if s.bp.predict(pc, taken) {
		s.stats.Mispredicts++
		s.clock += s.m.cfg.Costs.Mispredict
	}
}

// Exec models fetching code from the page containing codePage, filling the
// ITLB on a miss (outside transactions the walk just costs time).
func (s *Strand) Exec(codePage int32) {
	s.advance(s.m.cfg.Costs.Op)
	if s.yieldPending {
		return
	}
	pg := &s.m.mem.pages[codePage]
	if !s.mmu.itlb.lookup(codePage, pg.gen) {
		s.clock += s.m.cfg.Costs.TLBWalk
		s.stats.TLBWalks++
		s.mmu.itlb.fill(codePage, pg.gen)
	}
}

// FlushTLBs drops all of the strand's TLB state (simulating a context
// switch). The same-line caches are invalidated too: they encode "this
// page is at the micro-DTLB head", which a flush falsifies.
func (s *Strand) FlushTLBs() {
	s.mmu.micro.flush()
	s.mmu.main.flush()
	s.mmu.itlb.flush()
	s.ntLine = -1
	s.tx.lastLine = -1
}
