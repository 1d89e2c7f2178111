package sim

import (
	"fmt"
	"math/bits"
)

// This file opens the HTM design space: the axes along which hardware
// transactional memories differ (version management, conflict detection,
// conflict resolution, eviction tolerance) lifted out of the hard-coded
// Rock behaviour into Config.HTM. The zero value of every knob selects
// exactly what the simulator always did — bit-for-bit, pinned by the
// golden cycle-identity digests — so the default machine still *is* Rock,
// and every non-default point is a neighbouring design the paper's
// evaluation can be replayed against. See docs/HTM-DESIGN.md for the
// semantics, the cycle-cost model and the CPS mapping of each point.

// VersionMgmt selects how transactional stores are versioned.
type VersionMgmt uint8

const (
	// VMLazy buffers transactional stores in the store queue and drains
	// them to memory at commit — Rock's design (Section 2), the default.
	// Write-set capacity is the store queue (ST|SIZ on overflow), commit
	// pays a per-store drain cost, and aborts discard the buffer for free.
	VMLazy VersionMgmt = iota
	// VMEager writes memory in place at each transactional store and
	// records the previous value in a per-transaction undo log (the
	// LogTM-style design). Each store pays Costs.LogWrite for the log
	// append; commit is constant-time (nothing to drain, no per-store
	// cost, no store-queue bank bound); an abort must restore the log in
	// reverse order, paying Costs.LogWrite per entry on top of the usual
	// AbortPenalty. Requires DetectEager: in-place speculative data must
	// never be visible to a conflicting access, so the conflict (and the
	// victim's rollback) has to happen at access time.
	VMEager
)

// ConflictDetection selects when conflicts between transactions surface.
type ConflictDetection uint8

const (
	// DetectEager detects conflicts at each access — Rock's design, the
	// default: a transactional store claims exclusive ownership
	// immediately, a transactional load broadcasts against active
	// writers. Losers are decided by the ConflictResolution knob.
	DetectEager ConflictDetection = iota
	// DetectLazy defers detection to commit (the TCC-style design):
	// transactional accesses only mark directory bits, and the committing
	// transaction's store drain dooms every other transaction holding a
	// written line marked (first committer wins — the Resolve knob must
	// stay at its default, which the commit drain implements naturally).
	// Doomed victims still report COH, but only after the committer's
	// whole block has run. Requires VMLazy.
	DetectLazy
)

// ConflictResolution selects who survives an eagerly detected conflict
// between a requesting transaction and an active holder.
type ConflictResolution uint8

const (
	// ResRequesterWins dooms the holder (COH) and lets the requester
	// proceed immediately — Rock's design, the default, and the source of
	// the Section 4 livelock that software backoff must defeat.
	ResRequesterWins ConflictResolution = iota
	// ResCommitterWins favours the transaction already holding the line:
	// the requester stalls one Costs.NackStall window (the holder may
	// commit or abort meanwhile), re-checks once, and self-aborts with
	// COH if the conflict persists. COH therefore flips meaning: it names
	// the requester that lost, not a victim doomed from outside, and
	// every COH abort already paid a hardware stall (see
	// policy.TuningForDesign). Non-transactional accesses still win
	// unconditionally — they cannot retry.
	ResCommitterWins
	// ResTimestamp arbitrates by age: the transaction that began earlier
	// wins (machine-wide begin sequence numbers, so arbitration is total
	// and livelock-free). Younger holders are doomed like requester-wins;
	// an older holder makes the requester stall-then-self-abort like
	// committer-wins.
	ResTimestamp
)

// HTMDesign selects the point in the HTM design space the machine
// implements. The zero value is Rock: lazy store-queue write buffering,
// eager requester-wins conflict detection, zero eviction tolerance.
type HTMDesign struct {
	VM      VersionMgmt
	Detect  ConflictDetection
	Resolve ConflictResolution
	// StickyLines bounds how many transactionally marked lines may be
	// displaced from the L1 per attempt without aborting: the directory
	// marks survive in a bounded "sticky" overflow set (cf. gem5's
	// allow_read_set_l1_cache_evictions + sticky-S states and the FORTH
	// limited-set HTM), each spill charging Costs.StickyEvict. 0 — the
	// default — aborts on the first displacement (CPS=LD, Rock);
	// displacements beyond the bound abort with CPS=LD|SIZ (the overflow
	// set itself filled). L2 back-invalidations still abort: only L1
	// capacity is tolerated.
	StickyLines int
}

// validate rejects incoherent design points loudly at machine
// construction; a silent fallback would sweep a design that does not
// exist.
func (d HTMDesign) validate() {
	if d.VM == VMEager && d.Detect == DetectLazy {
		panic("sim: HTMDesign{VM: VMEager, Detect: DetectLazy} is incoherent — " +
			"in-place speculative stores must detect conflicts at access time (use DetectEager)")
	}
	if d.Detect == DetectLazy && d.Resolve != ResRequesterWins {
		panic("sim: HTMDesign with DetectLazy arbitrates at commit (first committer wins); " +
			"leave Resolve at the default")
	}
	if d.StickyLines < 0 {
		panic(fmt.Sprintf("sim: HTMDesign.StickyLines must be >= 0, got %d", d.StickyLines))
	}
}

// DesignPointNames lists the named design points in sweep order; the
// first is always the Rock default.
func DesignPointNames() []string {
	return []string{"rock", "eagervm", "lazydet", "committer", "timestamp", "sticky"}
}

// DesignPoint returns a named HTM design point for the htmdesign sweep:
// "rock" (the all-default baseline), "eagervm" (undo-log version
// management), "lazydet" (validate-at-commit detection), "committer" and
// "timestamp" (alternative conflict resolution), and "sticky" (an
// 8-line eviction-tolerant overflow set). It panics on unknown names;
// design points are always requested from code.
func DesignPoint(name string) HTMDesign {
	switch name {
	case "rock":
		return HTMDesign{}
	case "eagervm":
		return HTMDesign{VM: VMEager}
	case "lazydet":
		return HTMDesign{Detect: DetectLazy}
	case "committer":
		return HTMDesign{Resolve: ResCommitterWins}
	case "timestamp":
		return HTMDesign{Resolve: ResTimestamp}
	case "sticky":
		return HTMDesign{StickyLines: 8}
	}
	panic(fmt.Sprintf("sim: unknown HTM design point %q (known: %v)", name, DesignPointNames()))
}

// ---- Conflict arbitration (non-default resolution) ----

// doomRemote dooms v's in-flight transaction for reason. Under eager
// version management the victim's undo log is unrolled immediately — the
// conflicting access is about to observe memory, so the victim's
// in-place speculative values must be gone before it proceeds — with the
// restore cost charged to the victim when its abort is delivered. Under
// the default lazy design it is exactly Strand.doom.
func (m *Machine) doomRemote(v *Strand, reason uint32) {
	if !v.tx.active {
		return
	}
	v.tx.doomed |= reason
	if m.vmEager {
		v.tx.rolledBack += v.tx.rollbackUndo(m.mem)
	}
}

// rollbackUndo restores memory from the undo log in reverse order (eager
// version management) and truncates the log, returning the number of
// entries restored. It is idempotent: a second call finds an empty log —
// which is how an abort delivered after a remote conflict already
// unrolled the log charges the restore cost exactly once (txnState.
// rolledBack carries the count across).
func (t *txnState) rollbackUndo(mem *Memory) int {
	n := len(t.storeAddrs)
	for i := n - 1; i >= 0; i-- {
		mem.write(t.storeAddrs[i], t.storeVals[i])
	}
	t.storeAddrs = t.storeAddrs[:0]
	t.storeVals = t.storeVals[:0]
	return n
}

// arbMask returns the conflicting holders a transactional access to line
// must arbitrate against: every active marker for a store, every active
// writer for a load.
func (s *Strand) arbMask(line int32, store bool) uint64 {
	lm := &s.m.mem.lines[line]
	if store {
		return lm.marked &^ s.bit
	}
	return lm.written & s.m.activeMask &^ s.bit
}

// resolveArb arbitrates a transactional access against active holders of
// line under committer-wins or timestamp resolution. It runs before the
// line is filled: the NACK stall below may yield the baton, so it must
// complete while the access holds no per-attempt L1 slot state. It
// reports false if the requester's transaction aborted.
func (s *Strand) resolveArb(line int32, store bool) bool {
	holders := s.arbMask(line, store)
	if holders == 0 {
		return true
	}
	if s.m.resolve == ResTimestamp {
		if holders = s.doomYounger(holders); holders == 0 {
			return true
		}
	}
	// The holder wins: stall one NACK window (an advance, so the baton may
	// pass and the holder may commit or abort meanwhile), then re-check
	// once. A conflict that persists aborts the requester with COH —
	// stalling again instead could deadlock two transactions holding each
	// other's lines.
	s.advance(s.m.cfg.Costs.NackStall)
	if s.checkDoom() {
		return false
	}
	holders = s.arbMask(line, store)
	if s.m.resolve == ResTimestamp {
		holders = s.doomYounger(holders)
	}
	if holders != 0 {
		s.txAbort(cohBit)
		return false
	}
	return true
}

// doomYounger dooms every strand in mask whose transaction began after
// this one (timestamp arbitration: the older transaction wins) and
// returns the mask of survivors — older holders, against whom the caller
// must lose.
func (s *Strand) doomYounger(mask uint64) uint64 {
	var older uint64
	for rest := mask; rest != 0; rest &= rest - 1 {
		v := s.m.strands[bits.TrailingZeros64(rest)]
		if v.tx.ts > s.tx.ts {
			s.m.doomRemote(v, cohBit)
		} else {
			older |= v.bit
		}
	}
	return older
}

// spillMarked handles the displacement of one of the strand's own marked
// lines from its L1 (the slot is already gone; the caller has cleared
// lm.present). Under a sticky-set design with budget remaining, the
// directory marks survive in the overflow set — conflict detection keeps
// working through the directory bits even though no cache copy exists —
// and the spill is absorbed. Otherwise the marks are dropped and the
// caller must abort/doom with evictAbortReason. Reports whether the
// eviction was absorbed.
func (s *Strand) spillMarked(lm *lineMeta) bool {
	if s.m.stickyCap > 0 && s.tx.sticky < s.m.stickyCap {
		s.tx.sticky++
		s.clock += s.m.cfg.Costs.StickyEvict
		return true
	}
	lm.marked &^= s.bit
	lm.written &^= s.bit
	return false
}

// evictAbortReason is the CPS value of a marked-line displacement the
// design did not absorb: LD under the default zero-tolerance design
// (the read set can no longer be tracked); LD|SIZ under a sticky design
// (the bounded overflow set itself filled).
func (s *Strand) evictAbortReason() uint32 {
	if s.m.stickyCap > 0 {
		return ldBit | sizBit
	}
	return ldBit
}
