package sim

import "fmt"

// Word is the unit of simulated storage: a 64-bit value. Pointers within
// simulated memory are stored as words holding the target Addr; Addr 0 plays
// the role of the null pointer (the allocator never hands out address 0).
type Word = uint64

// Addr is a word-granularity simulated address.
type Addr uint32

// Geometry of the simulated memory system.
const (
	// WordsPerLine is the number of 64-bit words per 64-byte cache line.
	WordsPerLine = 8
	// LineShift converts a word address to a line number.
	LineShift = 3
	// PageWords is the number of words per 8 KB page.
	PageWords = 1024
	// PageShift converts a word address to a page number.
	PageShift = 10
)

// LineOf returns the cache-line number containing address a.
func LineOf(a Addr) int32 { return int32(a >> LineShift) }

// PageOf returns the page number containing address a.
func PageOf(a Addr) int32 { return int32(a >> PageShift) }

// lineMeta is the coherence-directory entry for one cache line.
//
// present is a bitmask (by strand ID) of L1 caches currently holding the
// line; marked is the subset that holds it *transactionally marked*. A store
// by any strand invalidates the line everywhere else and — per Rock's
// "requester wins" policy — dooms every transaction that had it marked.
type lineMeta struct {
	present uint64
	marked  uint64
	written uint64
}

// pageMeta is the simulated OS view of one page.
type pageMeta struct {
	mapped   bool // address range handed out by the allocator
	walkable bool // mapping present in the page tables (hardware-walkable)
	writable bool // write permission established (first write fault taken)
	// dirty marks a page whose words or directory entries were written
	// since the machine was built; recycle scrubs exactly these pages.
	dirty bool
	gen   uint32
}

// Memory is the shared simulated memory: a flat array of words plus the
// coherence directory and the OS page map. All mutation happens under the
// machine's baton (exactly one strand executes at a time), so no locking is
// required.
//
// The arrays span the whole configured size and come from the retired
// free list (see retired): experiments configure tens of megabytes of
// simulated memory and touch a fraction of it, so an array fresh from the
// OS costs only the host pages the machine writes, and a recycled one only
// the scrub of the pages its previous owner wrote.
type Memory struct {
	limit int // configured capacity, in words (Alloc fails beyond this)
	words []Word
	lines []lineMeta
	pages []pageMeta
	next  Addr // bump allocator cursor
}

// linesPerPage is the number of coherence-directory entries per page.
const linesPerPage = PageWords / WordsPerLine

func newMemory(words int) *Memory {
	if words < PageWords {
		words = PageWords
	}
	// Round up to whole pages.
	words = (words + PageWords - 1) &^ (PageWords - 1)
	return &Memory{
		limit: words,
		words: take(&retired.words, words),
		lines: take(&retired.lines, words/WordsPerLine),
		pages: take(&retired.pages, words/PageWords),
		next:  WordsPerLine, // skip line 0 so Addr 0 stays "null"
	}
}

// recycle scrubs the pages written since construction, zeroes the page
// map and shelves the three arrays. The Memory is unusable afterwards:
// every access indexes an empty array and panics.
func (m *Memory) recycle() {
	for p := range m.pages {
		if m.pages[p].dirty {
			clear(m.words[p*PageWords : (p+1)*PageWords])
			clear(m.lines[p*linesPerPage : (p+1)*linesPerPage])
		}
	}
	give(&retired.words, m.words)
	give(&retired.lines, m.lines)
	release(&retired.pages, m.pages)
	m.words, m.lines, m.pages = nil, nil, nil
}

// write stores w at a and marks a's page dirty. Every simulated write to
// a word goes through it, so recycle's scrub misses nothing.
func (m *Memory) write(a Addr, w Word) {
	m.pages[a>>PageShift].dirty = true
	m.words[a] = w
}

// touchLine marks the page holding line dirty before its directory entry
// is written.
func (m *Memory) touchLine(line int32) {
	m.pages[line>>(PageShift-LineShift)].dirty = true
}

// Size returns the number of words of simulated memory.
func (m *Memory) Size() int { return m.limit }

// Alloc hands out n words aligned to align words (align must be a power of
// two; 0 or 1 means word alignment). The returned range is mapped, walkable
// and writable — equivalent to memory that the process has already touched.
// Alloc panics if the simulated memory is exhausted; experiments size their
// machines up front.
func (m *Memory) Alloc(n int, align int) Addr {
	if n <= 0 {
		panic("sim: Alloc of non-positive size")
	}
	if align <= 1 {
		align = 1
	}
	a := (m.next + Addr(align) - 1) &^ (Addr(align) - 1)
	if int(a)+n > m.limit {
		panic(fmt.Sprintf("sim: out of simulated memory (want %d words at %d, have %d)", n, a, m.limit))
	}
	m.next = a + Addr(n)
	for p := PageOf(a); p <= PageOf(a+Addr(n)-1); p++ {
		m.pages[p].mapped = true
		m.pages[p].walkable = true
		m.pages[p].writable = true
	}
	return a
}

// AllocLines allocates n words starting on a cache-line boundary.
func (m *Memory) AllocLines(n int) Addr { return m.Alloc(n, WordsPerLine) }

// Remap simulates munmap+mmap of the pages covering [a, a+n): the range
// stays allocated but its page-table presence and write permission are
// revoked and all TLB entries for it become stale. A subsequent
// non-transactional touch takes a page fault and re-establishes the mapping;
// a transactional access aborts (LD|PREC for loads, ST for stores) as
// described in Section 3 of the paper.
func (m *Memory) Remap(a Addr, n int) {
	for p := PageOf(a); p <= PageOf(a+Addr(n)-1); p++ {
		m.pages[p].walkable = false
		m.pages[p].writable = false
		m.pages[p].gen++
	}
}

// Poke writes a word directly, bypassing cost accounting, caches and
// coherence. It is intended for test setup and data-structure
// prepopulation before a timed run starts.
func (m *Memory) Poke(a Addr, w Word) { m.write(a, w) }

// Peek reads a word directly, bypassing cost accounting and caches. It is
// intended for validation after a run completes.
func (m *Memory) Peek(a Addr) Word { return m.words[a] }

// PokeRange fills [a, a+len(ws)) directly.
func (m *Memory) PokeRange(a Addr, ws []Word) {
	if len(ws) == 0 {
		return
	}
	for p := PageOf(a); p <= PageOf(a+Addr(len(ws))-1); p++ {
		m.pages[p].dirty = true
	}
	copy(m.words[a:int(a)+len(ws)], ws)
}
