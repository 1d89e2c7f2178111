package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// This file pins the New → Run → Recycle lifecycle: a machine built from
// recycled arrays must be indistinguishable from one built from fresh
// ones, and a recycled machine must refuse to run.

// churnPages is the size of the arena churnBody stores to, in pages.
// Its loads also reach the page after it, which therefore ends with
// directory entries but no written words.
const churnPages = 16

// churnBody drives one strand through a seeded mix of every simulated
// write path: plain stores, CAS and Add, transactions that commit (the
// store-queue drain) or abort (the undo log under eager version
// management), remaps and TLB flushes. Half the accesses hit eight hot
// lines, so strands conflict. Every value written is nonzero, so a write
// the dirty marks missed shows up as a nonzero word on a clean page.
func churnBody(s *Strand, mem *Memory, arena Addr) {
	addr := func(pages int) Addr {
		if s.RandIntn(2) == 0 {
			return arena + Addr(s.RandIntn(8)*WordsPerLine)
		}
		return arena + Addr(s.RandIntn(pages*PageWords))
	}
	load := func() Addr { return addr(churnPages + 1) }
	store := func() Addr { return addr(churnPages) }
	for i := 0; i < 300; i++ {
		switch s.RandIntn(8) {
		case 0:
			s.Load(load())
		case 1:
			s.Store(store(), s.Rand()|1)
		case 2:
			a := store()
			s.CAS(a, s.Load(a), s.Rand()|1)
		case 3:
			s.Add(store(), 1)
		case 4, 5:
			s.TxBegin()
			ok := true
			for k := 1 + s.RandIntn(6); k > 0 && ok; k-- {
				if s.RandIntn(2) == 0 {
					_, ok = s.TxLoad(load())
				} else {
					ok = s.TxStore(store(), s.Rand()|1)
				}
			}
			if ok {
				s.TxCommit()
			}
		case 6:
			if s.ID() == 0 {
				mem.Remap(arena+Addr(s.RandIntn(churnPages)*PageWords), PageWords)
			} else {
				s.FlushTLBs()
			}
		default:
			s.Advance(int64(1 + s.RandIntn(50)))
		}
	}
}

// churnMachine builds a machine from cfg, writes one page past
// churnBody's reach with Poke only and the two after it with one PokeRange
// across their boundary, and runs churnBody on every strand.
func churnMachine(cfg Config) *Machine {
	m := New(cfg)
	mem := m.Mem()
	arena := mem.Alloc((churnPages+4)*PageWords, PageWords)
	mem.Poke(arena+(churnPages+1)*PageWords+5, 7)
	mem.PokeRange(arena+(churnPages+3)*PageWords-2, []Word{1, 2, 3, 4})
	m.Run(func(s *Strand) { churnBody(s, mem, arena) })
	return m
}

// churnConfig is a small machine for the churn workload.
func churnConfig(strands int, seed uint64) Config {
	cfg := DefaultConfig(strands)
	cfg.MemWords = 1 << 16
	cfg.Seed = seed
	cfg.MaxCycles = 1 << 40
	return cfg
}

// TestRecycledArraysReproduceGoldenDigests dirties the free list with
// machines of another geometry and of another design point — eager
// version management with a sticky set, under TLB shootdowns, adversarial
// evictions and remaps — recycles them, and then requires golden cells
// built from those arrays to reproduce their pinned digests.
func TestRecycledArraysReproduceGoldenDigests(t *testing.T) {
	for _, c := range goldenMatrix {
		other := churnConfig(8, 3)
		other.L1Sets, other.MainDTLB = 64, 256
		churnMachine(other).Recycle()

		dirty := goldenConfig(c)
		dirty.Seed = 99
		dirty.HTM = HTMDesign{VM: VMEager, StickyLines: 8}
		dirty.Faults = FaultPlan{TLBShootdownProb: 0.35, EvictMarkedProb: 0.05, InvalidateProb: 0.02}
		d := goldenMachine(dirty)
		words, l2 := &d.mem.words[0], &d.l2.slots[0]
		d.Recycle()

		cfg := goldenConfig(c)
		m := goldenMachine(cfg)
		if &m.mem.words[0] != words || &m.l2.slots[0] != l2 {
			t.Fatalf("%s: the golden machine did not reuse the recycled arrays", c.name)
		}
		if mc, digest := m.MaxClock(), goldenFold(m, cfg); mc != c.maxClock || digest != c.digest {
			t.Errorf("%s on recycled arrays: got (maxClock=%d, digest=%s), pinned (maxClock=%d, digest=%s)",
				c.name, mc, digest, c.maxClock, c.digest)
		}
		m.Recycle()
	}
}

// requireEmpty fails unless every host array of m is in its empty state:
// memory, directory and page map all zero over the configured range, and
// every cache, TLB and predictor empty.
func requireEmpty(t *testing.T, m *Machine) {
	t.Helper()
	mem := m.mem
	if len(mem.words) != mem.Size() || len(mem.lines) != mem.Size()/WordsPerLine || len(mem.pages) != mem.Size()/PageWords {
		t.Fatalf("memory arrays do not span the configured %d words", mem.Size())
	}
	for a, w := range mem.words {
		if w != 0 {
			t.Fatalf("word %d = %#x on a new machine", a, w)
		}
	}
	for l, lm := range mem.lines {
		if lm != (lineMeta{}) {
			t.Fatalf("directory entry %d = %+v on a new machine", l, lm)
		}
	}
	for p, pm := range mem.pages {
		if pm != (pageMeta{}) {
			t.Fatalf("page %d = %+v on a new machine", p, pm)
		}
	}
	for i, sl := range m.l2.slots {
		if sl != (l2Slot{}) {
			t.Fatalf("L2 slot %d = %+v on a new machine", i, sl)
		}
	}
	for _, s := range m.strands {
		for i, sl := range s.l1.slots {
			if sl != (l1Slot{}) {
				t.Fatalf("strand %d L1 slot %d = %+v on a new machine", s.id, i, sl)
			}
		}
		for _, tb := range []*tlb{&s.mmu.micro, &s.mmu.main, &s.mmu.itlb} {
			if tb.head != -1 || tb.tail != -1 || tb.nfree != tb.n || len(tb.ent) != tb.n {
				t.Fatalf("strand %d TLB not empty: head %d tail %d free %d/%d", s.id, tb.head, tb.tail, tb.nfree, tb.n)
			}
			for i, e := range tb.ent {
				if e != (tlbEntry{}) {
					t.Fatalf("strand %d TLB entry %d = %+v on a new machine", s.id, i, e)
				}
			}
			for i, w := range tb.used {
				if w != 0 {
					t.Fatalf("strand %d TLB occupancy word %d = %#x on a new machine", s.id, i, w)
				}
			}
			for p, v := range tb.slotOf {
				if v != 0 {
					t.Fatalf("strand %d TLB index maps page %d on a new machine", s.id, p)
				}
			}
		}
		for i, ctr := range s.bp.table {
			if ctr != 0 {
				t.Fatalf("strand %d predictor counter %d = %d on a new machine", s.id, i, ctr)
			}
		}
	}
}

// TestRecycledMachineStartsEmpty requires a machine built from a dirty
// machine's recycled arrays to start exactly as empty as a fresh one.
func TestRecycledMachineStartsEmpty(t *testing.T) {
	c := goldenMatrix[len(goldenMatrix)-1]
	cfg := goldenConfig(c)
	cfg.HTM = HTMDesign{VM: VMEager, StickyLines: 8}
	cfg.Faults = FaultPlan{TLBShootdownProb: 0.35, EvictMarkedProb: 0.05}
	d := goldenMachine(cfg)
	words := &d.mem.words[0]
	d.Recycle()
	m := New(cfg)
	if &m.mem.words[0] != words {
		t.Fatal("the new machine did not reuse the recycled memory")
	}
	requireEmpty(t, m)
	m.Recycle()
}

// requireDirtyCoverage fails if any nonzero word or directory entry of m
// sits on a page not flagged dirty: a write site that skipped the mark.
func requireDirtyCoverage(t *testing.T, m *Machine, what string) {
	t.Helper()
	mem := m.mem
	for p, pm := range mem.pages {
		if pm.dirty {
			continue
		}
		for a, w := range mem.words[p*PageWords : (p+1)*PageWords] {
			if w != 0 {
				t.Fatalf("%s: word %d = %#x on clean page %d", what, p*PageWords+a, w, p)
			}
		}
		for l, lm := range mem.lines[p*linesPerPage : (p+1)*linesPerPage] {
			if lm != (lineMeta{}) {
				t.Fatalf("%s: directory entry %d = %+v on clean page %d", what, p*linesPerPage+l, lm, p)
			}
		}
	}
}

// TestDirtyPagesCoverEveryWrite runs the churn workload under every HTM
// design point and several fault profiles and requires every word and
// directory entry it left nonzero to sit on a dirty page — the proof that
// Recycle's scrub, which clears only dirty pages, misses no write site.
func TestDirtyPagesCoverEveryWrite(t *testing.T) {
	for _, design := range DesignPointNames() {
		for _, faults := range []string{"none", "tlb", "inval", "evict"} {
			for seed := uint64(1); seed <= 2; seed++ {
				cfg := churnConfig(4, seed)
				cfg.HTM = DesignPoint(design)
				cfg.Faults = FaultProfile(faults)
				m := churnMachine(cfg)
				requireDirtyCoverage(t, m, fmt.Sprintf("%s/%s/seed %d", design, faults, seed))
				m.Recycle()
			}
		}
	}
}

// TestConcurrentNewRecycle builds, runs and recycles machines on several
// goroutines at once (run it under -race): every run must match the serial
// reference, whichever goroutine's arrays it was built from.
func TestConcurrentNewRecycle(t *testing.T) {
	cfg := churnConfig(4, 5)
	cfg.HTM = DesignPoint("eagervm")
	ref := churnMachine(cfg)
	want := goldenFold(ref, cfg)
	ref.Recycle()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				m := churnMachine(cfg)
				got := goldenFold(m, cfg)
				m.Recycle()
				if got != want {
					errs <- fmt.Sprintf("run %d: digest %s, serial reference %s", i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// requirePanic fails unless f panics with a message containing want.
func requirePanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q; want one mentioning %q", msg, want)
		}
	}()
	f()
}

// TestRecycleIsIdempotentAndFinal recycles a machine twice — which must
// shelve its arrays only once — and then requires both drivers to refuse
// to run it.
func TestRecycleIsIdempotentAndFinal(t *testing.T) {
	cfg := churnConfig(2, 1)
	m := churnMachine(cfg)
	m.Recycle()
	m.Recycle()
	a, b := New(cfg), New(cfg)
	if &a.mem.words[0] == &b.mem.words[0] || &a.l2.slots[0] == &b.l2.slots[0] ||
		&a.strands[0].l1.slots[0] == &b.strands[0].l1.slots[0] {
		t.Fatal("a doubly recycled machine's arrays went to two new machines")
	}
	requirePanic(t, "recycled", func() { m.Run(func(*Strand) {}) })
	requirePanic(t, "recycled", func() {
		m.RunStepped(func(*Strand) StepFn { return func() bool { return true } })
	})
	a.Recycle()
	b.Recycle()
}

// machineNewRecycleBudget is the host memory, in bytes, one warm New +
// Recycle cycle of a 16-strand, 1<<24-word machine may allocate. Before
// the free list a cycle allocated ~4.2 MB (L2, page map, and three TLB
// page indexes per strand sized to the configured memory); what remains
// is the Machine, Memory, cache and Strand structs and each strand's
// store-queue maps, about 42 KB.
const machineNewRecycleBudget = 48 << 10

// TestMachineNewRecycleAllocs pins that a warm New takes every large
// array from the free list instead of allocating it.
func TestMachineNewRecycleAllocs(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MemWords = 1 << 24
	New(cfg).Recycle() // warm the free list
	const cycles = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		New(cfg).Recycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("warm New+Recycle allocates %d bytes", perCycle)
	if perCycle > machineNewRecycleBudget {
		t.Errorf("warm New+Recycle allocates %d bytes, budget is %d — a large array bypasses the free list",
			perCycle, machineNewRecycleBudget)
	}
}
