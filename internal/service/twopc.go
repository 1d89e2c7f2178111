package service

import (
	"slices"

	"rocktm/internal/core"
	"rocktm/internal/hashtable"
	"rocktm/internal/sim"
)

// Two-phase commit over single-shard TM transactions. The coordinator
// (the first op's shard) drives each participant through a *prepare* TM
// transaction — validate the keys, check/claim per-key lock-owner words,
// stage the operation — and then through a *commit* (apply staged ops,
// release owners) or *abort* (release owners, staged words become inert)
// TM transaction. Atomicity inside each shard comes from the shard's own
// TM system; atomicity across shards comes from the owner words: a key
// claimed by transaction T blocks any other transaction's prepare until
// T commits or aborts, and a single-shard op that races a prepared key
// simply sees the pre-transaction table state (staged ops are invisible
// until the commit transaction applies them).
//
// Failure model: the coordinator can crash after any prefix of prepares
// (CoordFailPct in Config; failAfter in RunTxn). Recovery is
// presumed-abort — with no commit decision recorded, every prepared
// participant is driven through the abort transaction, which restores
// exactly the pre-transaction state. Duplicate prepare delivery is
// idempotent: a participant that sees its own txid as owner re-stages
// and acks again.

// Branch sites of the 2PC bodies.
var (
	pcPrepOwner  = core.PC("service.prepare.owner")
	pcAbortOwner = core.PC("service.abort.owner")
)

// participant is one shard's share of a cross-shard transaction.
type participant struct {
	sh  *Shard
	ops []Op
}

// participants groups ops by shard in first-touch order. A transaction
// touching the same shard twice collapses to one participant with both
// ops — one prepare, one commit — not two independent legs. The result
// lives in the fleet's scratch buffer and is valid until the next call.
func (f *Fleet) participants(ops []Op) []participant {
	parts := f.parts[:0]
	for _, op := range ops {
		id := f.router.Shard(op.Key)
		i := slices.IndexFunc(parts, func(p participant) bool { return p.sh.id == id })
		if i < 0 {
			// Reuse the slot, and its ops buffer, from an earlier call.
			i = len(parts)
			parts = slices.Grow(parts, 1)[:i+1]
			parts[i].sh, parts[i].ops = f.shards[id], parts[i].ops[:0]
		}
		parts[i].ops = append(parts[i].ops, op)
	}
	f.parts = parts
	return parts
}

// TxnOutcome is one cross-shard transaction's result.
type TxnOutcome struct {
	// Committed is whether the transaction took effect; an aborted
	// transaction left every shard at its pre-transaction state.
	Committed bool
	// Completed is the fleet cycle the coordinator observed the final ack.
	Completed int64
}

// legKind is which 2PC transaction a leg runs.
type legKind uint8

const (
	legPrepare legKind = iota
	legCommit
	legAbort
)

// leg is the 2PC phase in flight: one participant's prepare, commit or
// abort transaction, run as a continuation machine on strand 0 of the
// participant's machine while the other strands finish at once. A fleet
// runs one phase at a time on one goroutine, so a single leg, with its
// RunStepped callbacks and TM bodies bound once by bind, serves every
// phase without allocating.
type leg struct {
	kind  legKind
	sh    *Shard
	txid  uint64
	ops   []Op
	voted bool
	dur   int64

	// Commit scratch, one entry per op.
	nodes    []sim.Addr
	inserted []bool
	removed  []sim.Addr

	// Continuation state on strand 0: the state, the op cursor of the
	// commit's node allocations and frees, whether the cursor's node step
	// is armed, and the transaction's block.
	s     *sim.Strand
	t0    int64
	st    uint8
	j     int
	armed bool
	alloc hashtable.AllocNodeStep
	free  hashtable.FreeNodeStep
	sub   core.StepBlock

	start                        func(*sim.Strand) sim.StepFn
	fn                           sim.StepFn
	prepareTx, commitTx, abortTx func(core.Ctx)
}

// leg states: commit allocates its insert nodes before the transaction
// and frees its losing and removed nodes after it.
const (
	lsAlloc uint8 = iota
	lsBlock
	lsFree
)

// bind builds the leg's callbacks and bodies once.
func (l *leg) bind() {
	l.start, l.fn = l.startStrand, l.step
	l.prepareTx, l.commitTx, l.abortTx = l.prepare, l.commit, l.abort
}

// phase runs kind's transaction for txid's ops on strand 0 of shard i's
// machine, starting no earlier than fleet cycle earliest and no earlier
// than the shard being free, and returns the fleet cycle at which the
// phase completes. Shard CPU time advances by exactly the cycles the
// transaction consumed.
func (f *Fleet) phase(kind legKind, i int, earliest int64, txid uint64, ops []Op) int64 {
	l := &f.leg
	l.kind, l.sh, l.txid, l.ops, l.dur = kind, f.shards[i], txid, ops, 0
	start := earliest
	if l.sh.busyUntil > start {
		start = l.sh.busyUntil
	}
	l.sh.m.RunStepped(l.start)
	l.sh.busyUntil = start + l.dur
	return l.sh.busyUntil
}

// finished is the step function of a strand with nothing to do.
func finished() bool { return true }

// startStrand is the leg's RunStepped start callback: strand 0 runs the
// transaction, the other strands finish at once.
func (l *leg) startStrand(st *sim.Strand) sim.StepFn {
	if st.ID() != 0 {
		return finished
	}
	l.s, l.t0, l.j, l.armed = st, st.Clock(), 0, false
	switch l.kind {
	case legPrepare:
		l.st, l.sub = lsBlock, l.sh.sys.StepAtomic(st, l.prepareTx, false)
	case legCommit:
		n := len(l.ops)
		l.nodes = slices.Grow(l.nodes[:0], n)[:n]
		l.inserted = slices.Grow(l.inserted[:0], n)[:n]
		l.removed = slices.Grow(l.removed[:0], n)[:n]
		l.st = lsAlloc
	default:
		l.st, l.sub = lsBlock, l.sh.sys.StepAtomic(st, l.abortTx, false)
	}
	return l.fn
}

// step runs strand 0's phase forward until it is done (true) or the
// strand must yield.
func (l *leg) step() bool {
	st, tab := l.s, l.sh.tab
	for {
		switch l.st {
		case lsAlloc:
			for ; l.j < len(l.ops); l.j++ {
				op := l.ops[l.j]
				l.nodes[l.j] = 0
				if op.Kind != Insert {
					continue
				}
				if !l.armed {
					l.alloc.Arm(op.Key, op.Val)
					l.armed = true
				}
				if !l.alloc.Step(st, tab) {
					return false
				}
				l.armed = false
				l.nodes[l.j] = l.alloc.Node()
			}
			l.st, l.sub = lsBlock, l.sh.sys.StepAtomic(st, l.commitTx, false)
		case lsBlock:
			if !l.sub.Step() {
				return false
			}
			if l.kind != legCommit {
				l.dur = st.Clock() - l.t0
				return true
			}
			l.st, l.j = lsFree, 0
		default: // lsFree
			for ; l.j < len(l.ops); l.j++ {
				if !l.armed {
					node := l.removed[l.j]
					if l.ops[l.j].Kind == Insert && !l.inserted[l.j] {
						node = l.nodes[l.j]
					}
					l.free.Arm(node)
					l.armed = true
				}
				if !l.free.Step(st, tab) {
					return false
				}
				l.armed = false
			}
			l.dur = st.Clock() - l.t0
			return true
		}
	}
}

// PrepareShard runs the prepare transaction for txid's ops on shard i,
// dispatched at fleet cycle at: inside one TM transaction it checks every
// key's owner word (free, or already txid — duplicate delivery is
// idempotent), performs a validation read of each key, then claims the
// owners and stages op kind and value in simulated memory. It reports
// whether the participant voted yes and the fleet cycle of the ack.
func (f *Fleet) PrepareShard(i int, at int64, txid uint64, ops []Op) (bool, int64) {
	done := f.phase(legPrepare, i, at, txid, ops)
	return f.leg.voted, done
}

// prepare is the prepare transaction's body.
func (l *leg) prepare(c core.Ctx) {
	sh := l.sh
	ok := true
	for _, op := range l.ops {
		owner := c.Load(sh.lockOwner + sim.Addr(op.Key))
		c.Branch(pcPrepOwner, owner != 0, true)
		if owner != 0 && uint64(owner) != l.txid {
			ok = false
			break
		}
	}
	if ok {
		for _, op := range l.ops {
			sh.tab.Lookup(c, op.Key) // validation read
			c.Store(sh.lockOwner+sim.Addr(op.Key), sim.Word(l.txid))
			c.Store(sh.stagedOp+sim.Addr(op.Key), sim.Word(op.Kind)+1)
			c.Store(sh.stagedVal+sim.Addr(op.Key), op.Val)
		}
	}
	// Host flag is written unconditionally at the end of the body, so
	// an aborted-and-retried attempt cannot leave a stale vote.
	l.voted = ok
}

// CommitShard runs the commit transaction for txid's ops on shard i:
// apply every staged op to the table and release the owner and staged
// words, all in one TM transaction. Insert nodes are preallocated before
// the atomic block (the Session pattern), and losers and removed nodes are
// returned to the pool after it.
func (f *Fleet) CommitShard(i int, at int64, txid uint64, ops []Op) int64 {
	return f.phase(legCommit, i, at, txid, ops)
}

// commit is the commit transaction's body.
func (l *leg) commit(c core.Ctx) {
	sh := l.sh
	// Reset host-side results first: the body may retry.
	for j := range l.ops {
		l.inserted[j] = false
		l.removed[j] = 0
	}
	for j, op := range l.ops {
		switch op.Kind {
		case Lookup:
			sh.tab.Lookup(c, op.Key)
		case Insert:
			l.inserted[j] = sh.tab.InsertNode(c, op.Key, l.nodes[j])
		default:
			l.removed[j] = sh.tab.DeleteNode(c, op.Key)
		}
		c.Store(sh.lockOwner+sim.Addr(op.Key), 0)
		c.Store(sh.stagedOp+sim.Addr(op.Key), 0)
		c.Store(sh.stagedVal+sim.Addr(op.Key), 0)
	}
}

// AbortShard runs the abort transaction for txid's ops on shard i:
// release every owner word still held by txid. Staged op/value words are
// left behind as inert garbage — semantic shard state is the table plus
// the owner words, and both are exactly their pre-transaction values
// after an abort.
func (f *Fleet) AbortShard(i int, at int64, txid uint64, ops []Op) int64 {
	return f.phase(legAbort, i, at, txid, ops)
}

// abort is the abort transaction's body.
func (l *leg) abort(c core.Ctx) {
	for _, op := range l.ops {
		a := l.sh.lockOwner + sim.Addr(op.Key)
		owner := c.Load(a)
		c.Branch(pcAbortOwner, uint64(owner) == l.txid, true)
		if uint64(owner) == l.txid {
			c.Store(a, 0)
		}
	}
}

// crashRecoveryRPCs is the extra round trips a crashed coordinator's
// recovery costs before the presumed-abort pass starts.
const crashRecoveryRPCs = 4

// RunTxn executes one cross-shard transaction whose coordinator is
// dispatched at fleet cycle at. failAfter < 0 is the normal path;
// failAfter = k injects a coordinator crash after k successful prepares
// (k past the participant count crashes after all prepares — still an
// abort, because no commit decision was recorded). Every phase costs one
// RPC each way; phases run sequentially in participant order, so the
// transaction's latency scales with its shard span.
func (f *Fleet) RunTxn(at int64, ops []Op, failAfter int) TxnOutcome {
	txid := f.nextTxn
	f.nextTxn++
	parts := f.participants(ops)
	crash := failAfter >= 0
	limit := len(parts)
	if crash && failAfter < limit {
		limit = failAfter
	}
	tc := at
	prepared := 0
	allYes := true
	for i := 0; i < limit; i++ {
		p := parts[i]
		ok, done := f.PrepareShard(p.sh.id, tc+f.cfg.RPCCycles, txid, p.ops)
		tc = done + f.cfg.RPCCycles
		prepared = i + 1
		if !ok {
			allYes = false
			break
		}
	}
	commit := allYes && !crash && prepared == len(parts)
	if crash {
		tc += crashRecoveryRPCs * f.cfg.RPCCycles
	}
	for i := 0; i < prepared; i++ {
		p := parts[i]
		var done int64
		if commit {
			done = f.CommitShard(p.sh.id, tc+f.cfg.RPCCycles, txid, p.ops)
		} else {
			done = f.AbortShard(p.sh.id, tc+f.cfg.RPCCycles, txid, p.ops)
		}
		tc = done + f.cfg.RPCCycles
	}
	if commit {
		f.committed2PC++
	} else {
		f.aborted2PC++
	}
	return TxnOutcome{Committed: commit, Completed: tc}
}
