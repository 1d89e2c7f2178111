package sim

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// Safety tests for the pooled strand coroutines behind Machine.Run: a
// worker whose body died never serves another run, idle workers carry no
// state from the run they served, and the idle set stays capped.

// idleSnapshot returns a copy of the idle worker set.
func idleSnapshot() []*worker {
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	return slices.Clone(idleWorkers.w)
}

// checkIdle fails if an idle worker is dead or still holds a strand or a
// body.
func checkIdle(t *testing.T, dead *worker) {
	t.Helper()
	idle := idleSnapshot()
	if len(idle) > maxIdleWorkers {
		t.Errorf("idle set holds %d workers, cap is %d", len(idle), maxIdleWorkers)
	}
	for _, w := range idle {
		if w == dead {
			t.Error("the worker whose body died went back to the idle set")
		}
		if w.s != nil || w.body != nil {
			t.Error("an idle worker still holds a strand or a body")
		}
	}
}

// checkGoldenAfter re-runs one golden case on a fresh machine — on
// workers taken from the idle set the failed run left behind — and
// requires the pinned digest.
func checkGoldenAfter(t *testing.T) {
	t.Helper()
	c := goldenMatrix[5] // s4-sse-intr
	if mc, d := goldenRun(c); mc != c.maxClock || d != c.digest {
		t.Errorf("run after a dead body: (maxClock=%d, digest=%s), pinned (%d, %s)", mc, d, c.maxClock, c.digest)
	}
}

// dyingBody returns a 4-strand body in which strand victim calls die
// after `after` quantum-crossing advances, recording its worker in *dead.
// Strand 3 returns at once, so a mid-run death leaves a finished worker,
// strands parked mid-body, and (when after is 0) strands never started.
func dyingBody(victim, after int, dead **worker, die func()) func(*Strand) {
	return func(s *Strand) {
		if s.ID() == 3 {
			return
		}
		for i := 0; i < 50; i++ {
			if s.ID() == victim && i == after {
				*dead = s.w
				die()
			}
			s.Advance(100)
		}
	}
}

func TestRunPanicNeverReturnsWorker(t *testing.T) {
	for _, after := range []int{0, 10} {
		var dead *worker
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want the body's panic", r)
				}
			}()
			New(goldenConfig(goldenMatrix[4])).Run(dyingBody(0, after, &dead, func() { panic("boom") }))
		}()
		if dead == nil {
			t.Fatal("the victim strand never ran")
		}
		checkIdle(t, dead)
		checkGoldenAfter(t)
	}
}

func TestRunGoexitNeverReturnsWorker(t *testing.T) {
	for _, after := range []int{0, 10} {
		var dead *worker
		returned := false
		done := make(chan struct{})
		go func() {
			defer close(done)
			New(goldenConfig(goldenMatrix[4])).Run(dyingBody(1, after, &dead, runtime.Goexit))
			returned = true
		}()
		<-done
		if returned {
			t.Fatal("Run returned after a body called runtime.Goexit")
		}
		if dead == nil {
			t.Fatal("the victim strand never ran")
		}
		checkIdle(t, dead)
		checkGoldenAfter(t)
	}
}

// TestIdleWorkersStayCapped runs more machines at once than the idle set
// may keep workers for, then many more one after another: afterwards the
// idle set and the process's goroutines stay within the cap.
func TestIdleWorkersStayCapped(t *testing.T) {
	base := runtime.NumGoroutine() - len(idleSnapshot())
	cfg := DefaultConfig(MaxStrands)
	cfg.MemWords = 1 << 12
	concurrent := maxIdleWorkers/MaxStrands + 1
	var started, finished sync.WaitGroup
	release := make(chan struct{})
	started.Add(concurrent)
	finished.Add(concurrent)
	for i := 0; i < concurrent; i++ {
		go func() {
			defer finished.Done()
			New(cfg).Run(func(s *Strand) {
				if s.ID() == 0 {
					started.Done()
					<-release // every machine holds all its workers at once
				}
				s.Advance(100)
			})
		}()
	}
	started.Wait()
	close(release)
	finished.Wait()
	small := DefaultConfig(8)
	small.MemWords = 1 << 12
	for i := 0; i < 200; i++ {
		New(small).Run(func(s *Strand) { s.Advance(100) })
	}
	checkIdle(t, nil)
	if n := len(idleSnapshot()); n != maxIdleWorkers {
		t.Errorf("idle set holds %d workers after %d concurrent machines, want the cap %d", n, concurrent, maxIdleWorkers)
	}
	// The machine goroutines have called Done but may not have exited yet.
	limit := base + maxIdleWorkers
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > limit && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > limit {
		t.Errorf("%d goroutines after many machines, want at most %d (%d + idle cap %d)", g, limit, base, maxIdleWorkers)
	}
}
