package sim

import "math/bits"

// tlbEntry is one TLB slot. The fields a probe touches (tag, gen) share a
// cache line with the intrusive LRU links so a hit costs one indexed load.
type tlbEntry struct {
	tag  int32  // page+1; 0 = free
	gen  uint32 // page generation at fill time
	next int32  // next-more-recently-used slot (-1 at head)
	prev int32  // next-less-recently-used slot (-1 at tail)
}

// tlb is a fully associative, LRU translation buffer with generation
// checking: entries become stale when the OS remaps the page (Memory.Remap
// bumps the page generation), which is how "re-mmap the memory ... has the
// effect of removing any TLB mappings" (Section 3) is modelled.
//
// The implementation is O(1) per probe and per fill, but is constrained to
// reproduce the original linear-scan implementation's decisions *exactly*
// (pinned by TestGoldenCycleIdentity):
//
//   - a page→slot index replaces the O(entries) probe scan;
//   - an intrusive doubly-linked list keeps exact LRU order. The old code
//     stamped a monotonic tick into age[slot] on every touch and evicted
//     the minimum-age slot; ticks were unique, so min-age is precisely the
//     list tail;
//   - an occupancy bitmap reproduces the old "first invalid slot by index"
//     victim preference (lowest clear bit = lowest index), which matters
//     because stale-generation probes punch holes at arbitrary indexes.
//
// Entry tags, index values and occupancy bits all encode "empty" as 0, so
// the arrays come straight from the retired free list and a recycled TLB
// is reset by clear.
type tlb struct {
	n      int
	ent    []tlbEntry
	head   int32    // most recently used slot, -1 when empty
	tail   int32    // least recently used slot, -1 when empty
	slotOf []int32  // page -> slot+1 (0 = not resident); grown by fill
	used   []uint64 // bitmap of occupied slots
	nfree  int
}

// minIndex is the shortest page index a TLB grows.
const minIndex = 64

func newTLB(entries int) *tlb {
	t := &tlb{}
	t.init(entries)
	return t
}

func (t *tlb) init(entries int) {
	t.n = entries
	t.ent = take(&retired.tlb, entries)
	t.used = take(&retired.used, (entries+63)/64)
	t.head = -1
	t.tail = -1
	t.nfree = entries
}

// release empties the TLB and shelves its arrays.
func (t *tlb) release() {
	release(&retired.tlb, t.ent)
	release(&retired.used, t.used)
	release(&retired.index, t.slotOf)
	t.ent, t.used, t.slotOf = nil, nil, nil
}

// grow widens the page index to cover page, doubling it at least, so a
// strand's index ends sized to the pages it touched rather than to the
// machine's configured memory.
func (t *tlb) grow(page int32) {
	n := max(2*len(t.slotOf), nextPow2(int(page)+1), minIndex)
	grown := take(&retired.index, n)
	copy(grown, t.slotOf)
	release(&retired.index, t.slotOf)
	t.slotOf = grown
}

// firstFree returns the lowest-index free slot; the caller guarantees one
// exists. This is the old implementation's "first pageOf[i] == -1 wins"
// victim preference. Bits past the last slot read as free, but a real free
// slot has a lower index, so the scan never reaches them.
func (t *tlb) firstFree() int32 {
	for w, word := range t.used {
		if word != ^uint64(0) {
			return int32(w*64 + bits.TrailingZeros64(^word))
		}
	}
	panic("sim: tlb.firstFree on full TLB")
}

// ---- intrusive LRU list (head = MRU, tail = LRU) ----

func (t *tlb) unlink(s int32) {
	e := &t.ent[s]
	if e.prev >= 0 {
		t.ent[e.prev].next = e.next
	} else {
		t.tail = e.next
	}
	if e.next >= 0 {
		t.ent[e.next].prev = e.prev
	} else {
		t.head = e.prev
	}
}

func (t *tlb) pushMRU(s int32) {
	e := &t.ent[s]
	e.prev = t.head
	e.next = -1
	if t.head >= 0 {
		t.ent[t.head].next = s
	} else {
		t.tail = s
	}
	t.head = s
}

// moveToFront unlinks s — which the caller guarantees is resident and not
// already the head — and reinstalls it as MRU. This is unlink+pushMRU with
// the branches those guarantees make impossible removed.
func (t *tlb) moveToFront(s int32) {
	e := &t.ent[s]
	t.ent[e.next].prev = e.prev // e.next >= 0: s is not the head
	if e.prev >= 0 {
		t.ent[e.prev].next = e.next
	} else {
		t.tail = e.next
	}
	e.prev = t.head
	e.next = -1
	t.ent[t.head].next = s // head >= 0: the list holds at least s
	t.head = s
}

// slot returns the resident slot for page, or -1.
func (t *tlb) slot(page int32) int32 {
	if int(page) >= len(t.slotOf) {
		return -1
	}
	return t.slotOf[page] - 1
}

// drop frees the slot holding page (stale generation or flush).
func (t *tlb) drop(s int32) {
	t.slotOf[t.ent[s].tag-1] = 0
	t.ent[s].tag = 0
	t.unlink(s)
	t.used[s/64] &^= 1 << uint(s%64)
	t.nfree++
}

// evict drops page's mapping if resident (the fault injector's TLB
// shootdown); a non-resident page is a no-op.
func (t *tlb) evict(page int32) {
	if s := t.slot(page); s >= 0 {
		t.drop(s)
	}
}

// lookup reports whether a current-generation mapping for page is present.
// The common cases — the probed page is the most or second-most recently
// used, which covers code alternating between a data structure's page and
// a metadata page — are answered without the slot-index probe. A head hit
// needs no LRU maintenance; a second-position hit performs exactly the
// unlink+pushMRU that lookupSlow would, so both fast paths leave the TLB
// in the identical state.
func (t *tlb) lookup(page int32, gen uint32) bool {
	if h := t.head; h >= 0 {
		e := &t.ent[h]
		if e.tag == page+1 && e.gen == gen {
			return true
		}
		if s := e.prev; s >= 0 {
			if e2 := &t.ent[s]; e2.tag == page+1 && e2.gen == gen {
				t.moveToFront(s)
				return true
			}
		}
	}
	return t.lookupSlow(page, gen)
}

func (t *tlb) lookupSlow(page int32, gen uint32) bool {
	s := t.slot(page)
	if s < 0 {
		return false
	}
	if t.ent[s].gen == gen {
		if t.head != s {
			t.moveToFront(s)
		}
		return true
	}
	// Stale mapping: drop it.
	t.drop(s)
	return false
}

// fill installs a mapping for page, evicting the LRU entry if needed.
func (t *tlb) fill(page int32, gen uint32) {
	if s := t.slot(page); s >= 0 {
		// Already resident (never reached from the machine paths, which
		// probe before filling): refresh in place.
		t.ent[s].gen = gen
		if t.head != s {
			t.moveToFront(s)
		}
		return
	}
	var victim int32
	if t.nfree > 0 {
		victim = t.firstFree()
		t.used[victim/64] |= 1 << uint(victim%64)
		t.nfree--
	} else {
		victim = t.tail
		t.slotOf[t.ent[victim].tag-1] = 0
		t.unlink(victim)
	}
	if int(page) >= len(t.slotOf) {
		t.grow(page)
	}
	t.ent[victim].tag = page + 1
	t.ent[victim].gen = gen
	t.slotOf[page] = victim + 1
	t.pushMRU(victim)
}

// flush drops every entry (used on simulated context switches).
func (t *tlb) flush() {
	for s := t.head; s >= 0; s = t.ent[s].prev {
		t.slotOf[t.ent[s].tag-1] = 0
		t.ent[s].tag = 0
	}
	t.head, t.tail = -1, -1
	clear(t.used)
	t.nfree = t.n
}

// mmu bundles a strand's translation state: a small micro-DTLB backed by a
// larger main DTLB, plus an instruction TLB. Rock fails a transactional
// store that misses the micro-DTLB (CPS=ST); because the failing access
// generates an MMU request, the mapping is established from the higher
// levels and a retry succeeds — unless no mapping exists at any level, in
// which case only software TLB warmup (the "dummy CAS" idiom) helps.
// The three TLBs are embedded by value (and mmu itself is embedded by
// value in Strand), so a translation probe is one indexed load off the
// strand rather than a pointer chase per level.
type mmu struct {
	micro tlb
	main  tlb
	itlb  tlb
}

func (u *mmu) init(microEntries, mainEntries, itlbEntries int) {
	u.micro.init(microEntries)
	u.main.init(mainEntries)
	u.itlb.init(itlbEntries)
}

func (u *mmu) release() {
	u.micro.release()
	u.main.release()
	u.itlb.release()
}
