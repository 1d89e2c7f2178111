package sim

import (
	"runtime"
	"sync"
)

// retired is the process-wide free list of the host arrays a machine is
// built from: the simulated-memory backings, the L2 slots, and each
// strand's L1 slots, TLB entries, TLB occupancy bitmaps, TLB page indexes
// and branch table. Machine.Recycle zeroes a retired machine's arrays and
// files them here; New takes arrays of the lengths it needs back out, so a
// warm process builds machines without allocating or initialising any of
// them. Every shelved array is all zero, which is also every one of these
// structures' empty state (tags and indexes encode "invalid" as 0).
//
// Unlike a sync.Pool the list survives garbage collections, and unlike a
// per-type cache it never holds a *Machine or *Strand: only arrays, so a
// retired machine stays collectable. Runner cells build and recycle
// machines on several goroutines at once, hence the mutex.
var retired = struct {
	sync.Mutex
	words  shelf[Word]
	lines  shelf[lineMeta]
	pages  shelf[pageMeta]
	l2     shelf[l2Slot]
	l1     shelf[l1Slot]
	tlb    shelf[tlbEntry]
	used   shelf[uint64]
	index  shelf[int32]
	branch shelf[uint8]
}{
	words:  shelf[Word]{max: retiredMachines},
	lines:  shelf[lineMeta]{max: retiredMachines},
	pages:  shelf[pageMeta]{max: retiredMachines},
	l2:     shelf[l2Slot]{max: retiredMachines},
	l1:     shelf[l1Slot]{max: retiredStrands},
	tlb:    shelf[tlbEntry]{max: 3 * retiredStrands},
	used:   shelf[uint64]{max: 3 * retiredStrands},
	index:  shelf[int32]{max: 3 * retiredStrands},
	branch: shelf[uint8]{max: retiredStrands},
}

// The free list keeps, per processor that can be inside a cell at once,
// the arrays of four machines (a fleet cell's shards) and of MaxStrands
// strands (one full machine, the bound maxIdleWorkers uses). Arrays
// retired past a shelf's cap push out its oldest entry, so a process that
// moves on to a new geometry stops pinning the old one's arrays.
var (
	retiredMachines = 4 * runtime.GOMAXPROCS(0)
	retiredStrands  = MaxStrands * runtime.GOMAXPROCS(0)
)

// shelf holds the retired arrays of one kind, oldest first.
type shelf[T any] struct {
	arrs [][]T
	max  int
}

// take returns an all-zero array of length n: the most recently retired
// one of that length, or a fresh one when the shelf has none.
func take[T any](sh *shelf[T], n int) []T {
	retired.Lock()
	for i := len(sh.arrs) - 1; i >= 0; i-- {
		if a := sh.arrs[i]; len(a) == n {
			copy(sh.arrs[i:], sh.arrs[i+1:])
			sh.arrs[len(sh.arrs)-1] = nil
			sh.arrs = sh.arrs[:len(sh.arrs)-1]
			retired.Unlock()
			return a
		}
	}
	retired.Unlock()
	return make([]T, n)
}

// give shelves a, which the caller has already zeroed. An empty array is
// not worth shelving.
func give[T any](sh *shelf[T], a []T) {
	if len(a) == 0 {
		return
	}
	retired.Lock()
	if len(sh.arrs) == sh.max {
		copy(sh.arrs, sh.arrs[1:])
		sh.arrs[len(sh.arrs)-1] = nil
		sh.arrs = sh.arrs[:len(sh.arrs)-1]
	}
	sh.arrs = append(sh.arrs, a)
	retired.Unlock()
}

// release zeroes a and shelves it.
func release[T any](sh *shelf[T], a []T) {
	clear(a)
	give(sh, a)
}
