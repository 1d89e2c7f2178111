package sim

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for every simulator hot path touched by PR 3. The
// scaling benchmarks (TLB entries 64→512, strands 2→16) are the proof
// that the indexed structures are O(1)/O(log n): ns/op must stay flat
// where the linear-scan implementation grew linearly.
//
// CI runs the whole file once per change (-benchtime=1x smoke) so the
// suite cannot bit-rot; scripts/bench.sh runs it for real and records
// the numbers in BENCH_PR3.json.

// ---- TLB ----

// BenchmarkTLBLookupHit measures a hit probing round-robin over every
// resident page: the linear-scan TLB pays O(entries/2) per probe, an
// indexed TLB pays O(1).
func BenchmarkTLBLookupHit(b *testing.B) {
	for _, entries := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			tb := newTLB(entries)
			for p := 0; p < entries; p++ {
				tb.fill(int32(p), 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !tb.lookup(int32(i%entries), 0) {
					b.Fatal("resident page missed")
				}
			}
		})
	}
}

// BenchmarkTLBFillChurn measures steady-state capacity misses: every
// probe misses and every fill must choose the exact-LRU victim.
func BenchmarkTLBFillChurn(b *testing.B) {
	for _, entries := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			tb := newTLB(entries)
			span := int32(2 * entries) // twice capacity: all misses
			for p := int32(0); p < span; p++ {
				tb.fill(p, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := int32(i) % span
				if !tb.lookup(p, 0) {
					tb.fill(p, 0)
				}
			}
		})
	}
}

// ---- Scheduler ----

// BenchmarkSchedulerHandoff measures one baton handoff (park + pick next
// + wake) with every advance overrunning the quantum, as strand counts
// scale. The linear scheduler pays two O(strands) scans per handoff.
func BenchmarkSchedulerHandoff(b *testing.B) {
	for _, strands := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("strands=%d", strands), func(b *testing.B) {
			cfg := DefaultConfig(strands)
			cfg.MemWords = 1 << 16
			m := New(cfg)
			per := b.N/strands + 1
			step := cfg.Quantum + 1 // every advance crosses the yield threshold
			b.ReportAllocs()
			b.ResetTimer()
			m.Run(func(s *Strand) {
				for i := 0; i < per; i++ {
					s.Advance(step)
				}
			})
		})
	}
}

// BenchmarkSchedulerHandoffStepped is the continuation-driver variant of
// BenchmarkSchedulerHandoff: quantum-saturating advances driven by
// Machine.RunStepped, where a handoff is a step-function return plus a
// heap pick instead of a goroutine park + wake. Each advance charges
// exactly one quantum (an op overrunning by more than a full quantum can
// never fit a fresh grant, and the driver's undo-and-re-run discipline
// would re-run it forever), so in steady state every grant completes one
// or two advances before the next one trips the yield — ns/op is
// dominated by one heap handoff, and the ratio to the coroutine variant
// is the per-handoff cost retired by the continuation scheduler.
func BenchmarkSchedulerHandoffStepped(b *testing.B) {
	for _, strands := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("strands=%d", strands), func(b *testing.B) {
			cfg := DefaultConfig(strands)
			cfg.MemWords = 1 << 16
			m := New(cfg)
			per := b.N/strands + 1
			step := cfg.Quantum // saturate the grant: yield on every following advance
			b.ReportAllocs()
			b.ResetTimer()
			m.RunStepped(func(s *Strand) StepFn {
				i := 0
				return func() bool {
					for i < per {
						s.Advance(step)
						if s.YieldPending() {
							return false
						}
						i++
					}
					return true
				}
			})
		})
	}
}

// runRepeatedBody is BenchmarkMachineRunRepeated's strand body: a few
// quantum-crossing advances, so every Run also performs handoffs.
func runRepeatedBody(s *Strand) {
	for i := 0; i < 4; i++ {
		s.Advance(100)
	}
}

// BenchmarkMachineRunRepeated measures one whole Run call on a 4-strand
// machine with a trivial body: the coroutine driver's fixed per-call cost
// (lending, switching into and returning four pooled strand coroutines),
// which experiments without step forms and the committer-wins and
// timestamp design points pay per Run. With pooled strand coroutines a
// warm Run creates no goroutine and allocates nothing; starting four
// fresh iter.Pull coroutines per call cost several allocations each plus
// their stack growth.
func BenchmarkMachineRunRepeated(b *testing.B) {
	cfg := DefaultConfig(4)
	cfg.MemWords = 1 << 16
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(runRepeatedBody)
	}
}

// TestMachineRunRepeatedAllocs pins BenchmarkMachineRunRepeated's
// allocations: at most one per Run call.
func TestMachineRunRepeatedAllocs(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MemWords = 1 << 16
	m := New(cfg)
	if allocs := testing.AllocsPerRun(200, func() { m.Run(runRepeatedBody) }); allocs > 1 {
		t.Errorf("Machine.Run allocates %.1f times per call, budget is 1 — the strand coroutines are no longer reused", allocs)
	}
}

// repeatedStep is runRepeatedBody as a continuation machine: the same
// four quantum-crossing advances, re-invoked from the interrupted one
// after each yield.
type repeatedStep struct {
	s  *Strand
	i  int
	fn StepFn
}

func (r *repeatedStep) step() bool {
	for r.i < 4 {
		r.s.Advance(100)
		if r.s.YieldPending() {
			return false
		}
		r.i++
	}
	return true
}

// newRepeatedStepped builds a 4-strand machine and the RunStepped start
// callback of runRepeatedBody's step form, bound once so that a call
// builds no closure.
func newRepeatedStepped() (*Machine, func(*Strand) StepFn) {
	cfg := DefaultConfig(4)
	cfg.MemWords = 1 << 16
	m := New(cfg)
	steps := make([]repeatedStep, 4)
	for i := range steps {
		steps[i].s = m.Strand(i)
		steps[i].fn = steps[i].step
	}
	return m, func(s *Strand) StepFn {
		r := &steps[s.ID()]
		r.i = 0
		return r.fn
	}
}

// BenchmarkMachineRunSteppedRepeated is BenchmarkMachineRunRepeated on the
// continuation driver: one whole RunStepped call on a 4-strand machine
// with the same trivial, quantum-crossing body written as step functions.
// It is the per-call scheduler cost the service tier pays for every batch
// and every 2PC phase.
func BenchmarkMachineRunSteppedRepeated(b *testing.B) {
	m, start := newRepeatedStepped()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunStepped(start)
	}
}

// TestMachineRunSteppedRepeatedAllocs pins BenchmarkMachineRunSteppedRepeated
// at zero allocations per call.
func TestMachineRunSteppedRepeatedAllocs(t *testing.T) {
	m, start := newRepeatedStepped()
	if allocs := testing.AllocsPerRun(200, func() { m.RunStepped(start) }); allocs != 0 {
		t.Errorf("Machine.RunStepped allocates %.1f times per call, want 0", allocs)
	}
}

// ---- Plain loads and stores ----

// benchMachine1 builds a single-strand machine with a small memory.
func benchMachine1() *Machine {
	cfg := DefaultConfig(1)
	cfg.MemWords = 1 << 20
	return New(cfg)
}

// BenchmarkLoadL1Hit is the simplest possible hot path: a warm load
// (TLB hit, L1 hit, no conflicts).
func BenchmarkLoadL1Hit(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		s.Load(a) // warm
		for i := 0; i < b.N; i++ {
			s.Load(a)
		}
	})
}

// BenchmarkLoadTLBChurn strides loads over more pages than the main DTLB
// holds: every access walks and fills, stressing translation end to end.
func BenchmarkLoadTLBChurn(b *testing.B) {
	m := benchMachine1()
	const pages = 600 // > MainDTLB (512)
	arena := m.Mem().Alloc(pages*PageWords, PageWords)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		for i := 0; i < b.N; i++ {
			s.Load(arena + Addr((i%pages)*PageWords))
		}
	})
}

// BenchmarkStoreL1Hit is the warm store path (translation + ownership).
func BenchmarkStoreL1Hit(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		s.Store(a, 0) // warm
		for i := 0; i < b.N; i++ {
			s.Store(a, Word(i))
		}
	})
}

// ---- Transactions ----

// BenchmarkTxCommit measures a small read-write transaction (4 loads,
// 4 stores, commit) on warm lines.
func BenchmarkTxCommit(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(8 * WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		for i := 0; i < 8; i++ { // warm TLB + caches + write permission
			s.CAS(a+Addr(i*WordsPerLine), 0, 0)
		}
		committed := 0
		for i := 0; i < b.N; i++ {
			s.TxBegin()
			ok := true
			for k := 0; k < 4 && ok; k++ {
				_, ok = s.TxLoad(a + Addr(k*WordsPerLine))
			}
			for k := 4; k < 8 && ok; k++ {
				ok = s.TxStore(a+Addr(k*WordsPerLine), Word(i))
			}
			if ok && s.TxCommit() {
				committed++
			}
		}
		if committed == 0 && b.N > 8 {
			b.Error("no transaction ever committed")
		}
	})
}

// BenchmarkTxAbort measures the abort path (begin, one load, explicit
// abort trap, CPS read).
func BenchmarkTxAbort(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		s.Load(a)
		for i := 0; i < b.N; i++ {
			s.TxBegin()
			if _, ok := s.TxLoad(a); ok {
				s.TxAbortTrap()
			}
			_ = s.CPS()
		}
	})
}

// BenchmarkTxLoadSameLineRun measures a run of transactional loads that
// stay within one cache line: after the first full-path load validates
// the line, every subsequent load takes the per-strand last-line fast
// path (tag check + LRU refresh + hit latency), skipping translation,
// coherence-directory probes and store-queue checks entirely. This is
// the batched-coherence case the data-structure kernels hit on every
// multi-word node visit.
func BenchmarkTxLoadSameLineRun(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		s.Load(a) // warm translation + L1
		i := 0
		for i < b.N {
			s.TxBegin()
			ok := true
			for k := 0; ok && k < 4096 && i < b.N; k++ {
				_, ok = s.TxLoad(a + Addr(i%WordsPerLine))
				i++
			}
			if ok {
				s.TxCommit()
			}
		}
	})
}

// BenchmarkTxLoadLineCrossingRun is the control for SameLineRun: each
// load targets a different line, so every access pays the full path —
// translation probe, L1 tag walk, coherence-directory read and mark.
// The ratio of the two is the isolated win of the same-line batching.
func BenchmarkTxLoadLineCrossingRun(b *testing.B) {
	m := benchMachine1()
	const lines = 8
	a := m.Mem().AllocLines(lines * WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		for i := 0; i < lines; i++ { // warm translation + L1
			s.Load(a + Addr(i*WordsPerLine))
		}
		i := 0
		for i < b.N {
			s.TxBegin()
			ok := true
			for k := 0; ok && k < 4096 && i < b.N; k++ {
				_, ok = s.TxLoad(a + Addr((i%lines)*WordsPerLine))
				i++
			}
			if ok {
				s.TxCommit()
			}
		}
	})
}

// BenchmarkTxLoadForwarding fills the store queue with stores to
// distinct lines, then loads each stored address back: every load must
// forward from the store queue. The linear-scan queue pays O(entries)
// per forwarded load.
func BenchmarkTxLoadForwarding(b *testing.B) {
	m := benchMachine1()
	const lines = 24 // fits two SSE banks of 16
	a := m.Mem().AllocLines(lines * WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		for i := 0; i < lines; i++ {
			s.CAS(a+Addr(i*WordsPerLine), 0, 0)
		}
		i := 0
		for i < b.N {
			s.TxBegin()
			ok := true
			for k := 0; k < lines && ok; k++ {
				ok = s.TxStore(a+Addr(k*WordsPerLine), Word(k))
			}
			for ok && i < b.N {
				_, ok = s.TxLoad(a + Addr((i%lines)*WordsPerLine))
				i++
			}
			if ok {
				s.TxCommit()
			}
		}
	})
}
