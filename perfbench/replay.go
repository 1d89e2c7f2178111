package main

import (
	"fmt"
	"runtime"
	"time"

	"rocktm/internal/core"
	"rocktm/internal/hashtable"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/rbtree"
	"rocktm/internal/service"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

// The replay rebuilds every cell of a workload from public constructors,
// copying the bench package's cell set-up, and drives it with
// sim.Machine.Run, the general strand driver. It must reproduce each
// cell's simulated throughput bit-for-bit against the child's -json point;
// that is what shows its layer numbers describe the program that was
// timed.

// cellResult is what one replayed cell reports.
type cellResult struct {
	opsPerUsec float64
	p999       int64 // simulated p99.9 operation or request latency, cycles
	// err is set when the cell could not run or, for the red-black tree,
	// when the tree's invariants fail afterwards.
	err error

	ops    uint64    // completed operations or requests
	strand sim.Stats // summed over every strand of every machine
	cycles int64     // summed MaxClock over the cell's machines
	stats  *core.Stats

	committed2PC, aborted2PC uint64
	shardOps                 []uint64

	mem memDelta // around the run call; zero when spans are off
}

// memDelta is the Go runtime's allocation and GC activity over a call.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMemStats() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc, ms.NumGC}
}

// measure runs f and, when spans are on, returns the runtime's
// allocation delta over it. ReadMemStats stops the world, so it is
// tracing cost and stays out of the untraced replay.
func (t *tracer) measure(f func()) memDelta {
	if !t.on {
		f()
		return memDelta{}
	}
	before := readMemStats()
	f()
	after := readMemStats()
	return memDelta{after.mallocs - before.mallocs, after.bytes - before.bytes, after.gcs - before.gcs}
}

func (r *cellResult) addMachine(m *sim.Machine) {
	for i := 0; i < m.Config().Strands; i++ {
		st := m.Strand(i).Stats()
		r.strand.Loads += st.Loads
		r.strand.Stores += st.Stores
		r.strand.CASes += st.CASes
		r.strand.L1Misses += st.L1Misses
		r.strand.L2Misses += st.L2Misses
		r.strand.Mispredicts += st.Mispredicts
		r.strand.TLBWalks += st.TLBWalks
		r.strand.TxBegins += st.TxBegins
		r.strand.TxCommits += st.TxCommits
		r.strand.TxAborts += st.TxAborts
	}
	r.cycles += m.MaxClock()
}

// kvCell is one (system, threads) cell of a key-value figure.
type kvCell struct {
	sys                                    sysBuilder
	threads, keyRange, pctLookup, memWords int
	buckets                                int // hash-table buckets; 0 builds the red-black tree
}

type kvSession interface {
	Lookup(key uint64) (sim.Word, bool)
	Insert(key uint64, val sim.Word) bool
	Delete(key uint64) bool
}

func (c kvCell) replay(tr *tracer, seed uint64, ops int) (r cellResult) {
	var m *sim.Machine
	tr.span("sim.New", "sim.new", func() { m = sim.New(machineConfig(c.threads, c.memWords, seed)) })
	capacity := c.keyRange + 2*m.Config().Strands + 64
	var session func(sys core.System, s *sim.Strand) kvSession
	var tree *rbtree.Tree
	if c.buckets > 0 {
		var t *hashtable.Table
		tr.span("hashtable.New+Prepopulate", "hashtable.build", func() {
			t = hashtable.New(m, c.buckets, capacity)
			t.Prepopulate(m.Mem(), workload.PrepopHalf(c.keyRange), 1)
		})
		session = func(sys core.System, s *sim.Strand) kvSession { return t.NewSession(sys, s) }
	} else {
		tr.span("rbtree.New+Prepopulate", "rbtree.build", func() {
			tree = rbtree.New(m, capacity)
			tree.Prepopulate(m.Mem(), workload.PrepopHalfShuffled(c.keyRange, 7), 1)
		})
		session = func(sys core.System, s *sim.Strand) kvSession { return tree.NewSession(sys, s) }
	}
	var sys core.System
	tr.span(c.sys.name+".New", "core.build", func() { sys = c.sys.build(m) })
	wl := workload.MustCompile(kvSpec(c.keyRange, c.pctLookup))
	// The recorder never perturbs the simulation; it supplies the p99.9
	// the kv figures do not print.
	lat := obs.NewLatencyRecorder()
	r.mem = tr.measure(func() {
		tr.span("Machine.Run", "sim.run", func() {
			m.Run(func(s *sim.Strand) {
				ses := session(sys, s)
				d := wl.Driver(s, lat)
				d.Run(ops, func(_, op int, key uint64) {
					switch op {
					case workload.OpLookup:
						ses.Lookup(key)
					case workload.OpInsert:
						ses.Insert(key, 1)
					default:
						ses.Delete(key)
					}
				})
			})
		})
	})
	res := workload.NewResult(uint64(c.threads*ops), m.ElapsedSeconds(), sys.Stats(), lat)
	r.opsPerUsec, r.p999, r.ops, r.stats = res.Throughput(), res.Lat.P999, res.Ops, sys.Stats()
	r.addMachine(m)
	if tree != nil {
		tr.span("rbtree.CheckInvariants", "check", func() { r.err = checkTree(tree, m.Mem()) })
	}
	tr.span("Machine.Recycle", "sim.recycle", m.Recycle)
	return r
}

// checkTree turns CheckInvariants' panic on a violation into an error.
func checkTree(t *rbtree.Tree, mem *sim.Memory) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("red-black tree invariant: %v", p)
		}
	}()
	t.CheckInvariants(mem)
	return nil
}

// The fleet experiment's fixed cell parameters, as the bench package
// sets them.
const (
	fleetKeyRange = 1024
	fleetBuckets  = 1 << 9
	fleetMemWords = 1 << 21
	fleetStrands  = 4
	fleetBaseGap  = 1024.0
	fleetFailPct  = 5
)

type fleetScenario struct {
	name   string
	keys   workload.Keys
	router string
}

func fleetScenarios() []fleetScenario {
	return []fleetScenario{
		{"uniform", workload.Uniform(fleetKeyRange), "hash"},
		{"zipf", workload.Zipfian(fleetKeyRange, 0.99), "hash"},
		{"zipf/hot", workload.Zipfian(fleetKeyRange, 0.99), "hot"},
	}
}

// fleetCell is one (system, scenario, cross fraction, shards) cell.
type fleetCell struct {
	sys      sysBuilder
	scenario fleetScenario
	cross    int
	shards   int
}

func (c fleetCell) replay(tr *tracer, seed uint64, ops int) (r cellResult) {
	router, err := service.NewRouter(c.scenario.router, c.shards, fleetKeyRange)
	if err != nil {
		return cellResult{err: err}
	}
	// The fleet builds its machines itself; the system constructor it
	// calls per shard is where the benchmark sees each machine.
	var machines []*sim.Machine
	build := func(m *sim.Machine) (sys core.System) {
		machines = append(machines, m)
		tr.span(c.sys.name+".New", "core.build", func() { sys = c.sys.build(m) })
		return sys
	}
	var f *service.Fleet
	tr.span("service.New", "service.new", func() {
		f, err = service.New(service.Config{
			Shards:       c.shards,
			Strands:      fleetStrands,
			KeyRange:     fleetKeyRange,
			Buckets:      fleetBuckets,
			MemWords:     fleetMemWords,
			Seed:         seed,
			System:       build,
			Router:       router,
			CoordFailPct: fleetFailPct,
			Window:       timeseries.DefaultWidth,
		})
	})
	if err != nil {
		return cellResult{err: err}
	}
	var res service.Result
	r.mem = tr.measure(func() {
		tr.span("Fleet.Run", "service.run", func() {
			res, err = f.Run(service.LoadSpec{
				Requests:  ops * c.shards,
				PctLookup: 50,
				Keys:      c.scenario.keys,
				Arrival:   workload.Diurnal(fleetBaseGap/float64(c.shards), 5, 1<<20, 0.6),
				CrossPct:  c.cross,
				Seed:      seed,
			})
		})
	})
	if err != nil {
		r.err = err
	} else {
		r.opsPerUsec, r.p999, r.ops, r.stats = res.Throughput(), res.Lat.P999, res.Requests, res.Stats
		r.committed2PC, r.aborted2PC = res.Committed2PC, res.Aborted2PC
		for _, sh := range res.Shards {
			r.shardOps = append(r.shardOps, sh.Ops)
		}
		for _, m := range machines {
			r.addMachine(m)
		}
	}
	tr.span("Fleet.Recycle", "sim.recycle", f.Recycle)
	return r
}

// replayPass is one replay of every cell of a workload.
type replayPass struct {
	results []cellResult
	seconds float64 // host wall time of the whole pass
	tr      *tracer
}

func replayAll(w *workloadDef, seed uint64, ops int, spans bool) replayPass {
	tr := newTracer(spans)
	start := time.Now()
	results := make([]cellResult, len(w.cells))
	for i, c := range w.cells {
		tr.cell = i
		tr.span("cell "+c.key.String(), "cell", func() { results[i] = c.replay(tr, seed, ops) })
	}
	return replayPass{results: results, seconds: time.Since(start).Seconds(), tr: tr}
}
