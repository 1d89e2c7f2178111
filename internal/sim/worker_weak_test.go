//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"weak"
)

// TestRetiredMachineIsCollectable drops a machine after two runs and
// requires the garbage collector to reclaim it: the workers those runs
// went back to the idle set must not pin the machine, its strands or the
// bodies that closed over it.
func TestRetiredMachineIsCollectable(t *testing.T) {
	wp := func() weak.Pointer[Machine] {
		cfg := DefaultConfig(4)
		cfg.MemWords = 1 << 12
		m := New(cfg)
		shared := m.Mem().AllocLines(WordsPerLine)
		for run := 0; run < 2; run++ {
			m.Run(func(s *Strand) {
				for i := 0; i < 20; i++ {
					s.Store(shared+Addr(s.ID()), Word(i))
					s.Advance(100)
				}
			})
		}
		return weak.Make(m)
	}()
	for i := 0; i < 5 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("a retired machine is still reachable: pooled workers pin it")
	}
}
