// Continuation-machine sessions (sim.RunStepped): each complete operation —
// node allocation, pre-transaction initialization stores, the atomic block,
// post-transaction reclamation — becomes an explicit state machine over the
// system's core.StepBlock. The simulated-operation sequence is op-for-op
// identical to the coroutine Session methods. AllocNodeStep and
// FreeNodeStep are the allocation and reclamation steps on their own, for
// callers that run their own atomic block over prepared nodes.
package hashtable

import (
	"rocktm/internal/alloc"
	"rocktm/internal/core"
	"rocktm/internal/sim"
)

// Operation kinds.
const (
	opLookup uint8 = iota
	opInsert
	opDelete
)

// opStep states.
const (
	osAlloc uint8 = iota
	osBlock
	osFree
)

// opStep is one session operation as a continuation machine.
type opStep struct {
	ss    *Session
	sys   core.StepSystem
	kind  uint8
	st    uint8
	alloc AllocNodeStep
	free  FreeNodeStep
	sub   core.StepBlock
}

// Step implements core.StepBlock.
func (o *opStep) Step() bool {
	ss := o.ss
	s := ss.s
	for {
		switch o.st {
		case osAlloc:
			if !o.alloc.Step(s, ss.t) {
				return false
			}
			ss.node = o.alloc.Node()
			ss.inserted = false
			o.sub = o.sys.StepAtomic(s, ss.insertFn, false)
			o.st = osBlock
		case osBlock:
			if !o.sub.Step() {
				return false
			}
			switch o.kind {
			case opLookup:
				return true
			case opInsert:
				reclaim := sim.Addr(0)
				if !ss.inserted {
					reclaim = ss.node
				}
				o.free.Arm(reclaim)
			default:
				o.free.Arm(ss.removed)
			}
			o.st = osFree
		default: // osFree
			return o.free.Step(s, ss.t)
		}
	}
}

// stepFor lazily builds the session's reusable operation machine; it
// requires (and asserts) a system with a continuation-machine face.
func (ss *Session) stepFor() *opStep {
	if ss.step == nil {
		ss.step = &opStep{ss: ss, sys: ss.sys.(core.StepSystem)}
	}
	return ss.step
}

// StepLookup arms Lookup as a continuation machine. The result lands in the
// session's fields once the block finishes (as with the coroutine methods,
// at most one operation per session is in flight).
func (ss *Session) StepLookup(key uint64) core.StepBlock {
	o := ss.stepFor()
	ss.key = key
	o.kind, o.st = opLookup, osBlock
	o.sub = o.sys.StepAtomic(ss.s, ss.lookupFn, true)
	return o
}

// StepInsert arms Insert as a continuation machine.
func (ss *Session) StepInsert(key uint64, val sim.Word) core.StepBlock {
	o := ss.stepFor()
	ss.key = key
	o.kind, o.st = opInsert, osAlloc
	o.alloc.Arm(key, val)
	return o
}

// StepDelete arms Delete as a continuation machine.
func (ss *Session) StepDelete(key uint64) core.StepBlock {
	o := ss.stepFor()
	ss.key = key
	ss.removed = 0
	o.kind, o.st = opDelete, osBlock
	o.sub = o.sys.StepAtomic(ss.s, ss.deleteFn, false)
	return o
}

// AllocNodeStep is AllocNode as a continuation machine: a pool Get, then
// the node's two initialization stores, outside any transaction.
type AllocNodeStep struct {
	get  alloc.GetStep
	key  uint64
	val  sim.Word
	node sim.Addr
	done int // steps completed: the pool Get, the key store, the value store
}

// Arm resets the machine to allocate a node for key→val.
func (a *AllocNodeStep) Arm(key uint64, val sim.Word) {
	a.get.Arm()
	a.key, a.val, a.done = key, val, 0
}

// Step advances the allocation on s from t's pool; false means the strand
// must yield. The node is available from Node once Step returns true.
func (a *AllocNodeStep) Step(s *sim.Strand, t *Table) bool {
	for ; a.done < 3; a.done++ {
		switch a.done {
		case 0:
			if !a.get.Step(s, t.pool) {
				return false
			}
			a.node = a.get.Addr()
		case 1:
			s.Store(a.node+fKey, a.key)
		default:
			s.Store(a.node+fVal, a.val)
		}
		if s.YieldPending() {
			return false
		}
	}
	return true
}

// Node returns the allocated node once Step has returned true.
func (a *AllocNodeStep) Node() sim.Addr { return a.node }

// FreeNodeStep is FreeNode as a continuation machine.
type FreeNodeStep struct {
	put alloc.PutStep
}

// Arm resets the machine to return node to the pool; a zero node is a
// no-op, so callers can arm unconditionally.
func (q *FreeNodeStep) Arm(node sim.Addr) { q.put.Arm(node) }

// Step advances the reclamation on s into t's pool; false means the strand
// must yield.
func (q *FreeNodeStep) Step(s *sim.Strand, t *Table) bool { return q.put.Step(s, t.pool) }
