// Package service is the sharded transactional service tier: N
// independent simulated Rock machines (each running its own TM system —
// PhTM, TLE, STM or plain locking — over its own key-value store),
// fronted by a deterministic request router with pluggable shard maps,
// per-shard request batching with a batch-size/deadline tradeoff, and
// cross-shard multi-key transactions via a two-phase-commit coordinator
// layered on single-shard TM transactions. It is ROADMAP item 1: the
// layer that turns "which TM system wins on one 16-strand machine" (E23)
// into "which TM system wins as a fleet" (E25).
//
// Time model. Each shard machine keeps its own virtual clock ("shard CPU
// time", advanced only while the machine executes a batch or a 2PC
// phase); the fleet keeps a separate fleet clock in the same cycle units,
// driven by the open-loop arrival process of internal/workload. A batch
// that closes at fleet time t starts executing at max(t, shard.busyUntil)
// and occupies the shard for exactly the machine cycles the batch
// consumed, so queueing delay — the gap between a request's arrival and
// its shard getting to it — is first-class and lands in the measured
// latency, which is what exposes hot-shard collapse. The whole tier is a
// single-goroutine discrete-event loop over seeded streams: a fleet run
// is a pure function of (Config, LoadSpec), which is what lets fleet
// cells ride the runner's content-addressed cache byte-identically.
//
// See docs/SERVICE.md for the layer map, the shard-map reference and a
// worked hot-shard example.
package service

import (
	"fmt"

	"rocktm/internal/core"
	"rocktm/internal/hashtable"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

// OpKind is one key-value operation class.
type OpKind uint8

const (
	// Lookup reads a key.
	Lookup OpKind = iota
	// Insert adds key→val (no-op if present).
	Insert
	// Delete removes a key (no-op if absent).
	Delete
)

// Op is one operation of a request. A request with a single op is a
// plain single-shard operation; a request with several ops is a
// multi-key transaction executed atomically across every shard its keys
// route to (via 2PC when more than one leg lands on a shard).
type Op struct {
	Kind OpKind
	Key  uint64
	Val  sim.Word
}

// BatchConfig is the per-shard batching policy: a shard's pending queue
// flushes when it holds MaxSize requests or when the oldest pending
// request has waited MaxDelay cycles — the classic batching tradeoff
// (bigger batches amortize dispatch, the deadline bounds added latency).
type BatchConfig struct {
	MaxSize  int
	MaxDelay int64
}

// SystemBuilder constructs a shard's TM system over its machine.
type SystemBuilder func(m *sim.Machine) core.System

// Config describes a fleet.
type Config struct {
	// Shards is the number of independent simulated machines.
	Shards int
	// Strands is the hardware strand count of each shard machine; batch
	// items spread round-robin across them.
	Strands int
	// KeyRange is the global keyspace [0, KeyRange); the router partitions
	// it across shards.
	KeyRange int
	// Buckets is each shard's hash-table bucket count (power of two).
	Buckets int
	// MemWords sizes each shard machine's memory.
	MemWords int
	// Seed derives every shard machine's seed (folded with the shard ID).
	Seed uint64
	// System builds each shard's TM system.
	System SystemBuilder
	// Router is the shard map; nil defaults to NewHashMap(Shards).
	Router ShardMap
	// Batch is the per-shard batching policy; zero values default to
	// MaxSize 8, MaxDelay 4096 cycles.
	Batch BatchConfig
	// RPCCycles is the one-way coordinator↔participant message cost
	// charged around every 2PC phase; 0 defaults to 500.
	RPCCycles int64
	// CoordFailPct is the percentage of cross-shard transactions whose
	// coordinator crashes after a partial prepare (driving the abort
	// path); rolls come from the load source's dedicated stream.
	CoordFailPct int
	// Faults is the per-shard-machine fault plan (sim.FaultPlan), applied
	// identically to every shard machine.
	Faults sim.FaultPlan
	// Window is the per-shard timeseries window width in cycles (<=0
	// selects timeseries.DefaultWidth).
	Window int64
}

// withDefaults fills the zero-value knobs.
func (cfg Config) withDefaults() Config {
	if cfg.Strands == 0 {
		cfg.Strands = 4
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 1 << 10
	}
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 21
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Batch.MaxSize == 0 {
		cfg.Batch.MaxSize = 8
	}
	if cfg.Batch.MaxDelay == 0 {
		cfg.Batch.MaxDelay = 4096
	}
	if cfg.RPCCycles == 0 {
		cfg.RPCCycles = 500
	}
	return cfg
}

// MachineConfig is the exact sim.Config fleet shard id runs under — the
// bench layer digests it into the runner cache key, so it must stay in
// lockstep with what New instantiates.
func MachineConfig(cfg Config, shard int) sim.Config {
	cfg = cfg.withDefaults()
	mc := sim.DefaultConfig(cfg.Strands)
	mc.MemWords = cfg.MemWords
	mc.Seed = cfg.Seed*0x9e3779b9 + uint64(shard)*0x85ebca77 + 1
	mc.MaxCycles = 1 << 46
	mc.Faults = cfg.Faults
	return mc
}

// Shard is one machine of the fleet plus its service-tier state.
type Shard struct {
	id  int
	m   *sim.Machine
	sys core.StepSystem
	tab *hashtable.Table

	// 2PC per-key state in simulated memory: lock owner (txid or 0),
	// staged value and staged op, each KeyRange words.
	lockOwner, stagedVal, stagedOp sim.Addr

	// busyUntil is the fleet cycle at which the shard machine is free.
	busyUntil int64

	lat *obs.LatencyRecorder
	rec *timeseries.Recorder
	ops uint64

	// queue is the open batch. flush splits it into the singles and
	// multis scratch buffers and then reuses its backing array: nothing
	// enqueues while a batch executes.
	queue, singles, multis []Request
	closeAt                int64

	// batch is each strand's continuation over a batch's single-shard
	// requests and startBatch the RunStepped start callback that hands them
	// out, both bound once in New; batchStart and batchDur are the
	// per-batch input and output.
	batch      []batchStrand
	startBatch func(*sim.Strand) sim.StepFn
	batchStart int64
	batchDur   int64
}

// batchStrand is one strand's share of a shard's batch as a continuation
// machine: the single-shard requests round-robin by strand ID, each
// completing at the batch start plus the strand's elapsed cycles.
type batchStrand struct {
	f   *Fleet
	sh  *Shard
	ses *hashtable.Session
	s   *sim.Strand
	idx int
	t0  int64
	sub core.StepBlock // the request in flight, nil between requests
	fn  sim.StepFn
}

// Request is one unit of offered load: a single op, or two for a
// cross-shard transaction, stored inline so queueing it allocates nothing.
type Request struct {
	arrival int64
	n       int
	ops     [2]Op
}

// Fleet is a running sharded service.
type Fleet struct {
	cfg    Config
	router ShardMap
	shards []*Shard

	lat          *obs.LatencyRecorder
	nextTxn      uint64
	committed2PC uint64
	aborted2PC   uint64
	lastComplete int64

	// Per-fleet 2PC scratch (see participants and leg); the fleet runs
	// one transaction and one phase at a time.
	parts []participant
	leg   leg
}

// New builds the fleet: Shards machines, each with its own TM system,
// store, 2PC tables and telemetry, prepopulated with every second key of
// the keyspace (each key on the shard the router assigns it).
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("service: Shards must be positive, got %d", cfg.Shards)
	}
	if cfg.KeyRange <= 0 {
		return nil, fmt.Errorf("service: KeyRange must be positive, got %d", cfg.KeyRange)
	}
	if cfg.System == nil {
		return nil, fmt.Errorf("service: Config.System is required")
	}
	router := cfg.Router
	if router == nil {
		router = NewHashMap(cfg.Shards)
	}
	if router.Shards() != cfg.Shards {
		return nil, fmt.Errorf("service: router routes over %d shards, fleet has %d", router.Shards(), cfg.Shards)
	}
	f := &Fleet{cfg: cfg, router: router, lat: obs.NewLatencyRecorder(), nextTxn: 1}
	f.leg.bind()
	for i := 0; i < cfg.Shards; i++ {
		m := sim.New(MachineConfig(cfg, i))
		sys := cfg.System(m)
		if err := steppable(m, sys); err != nil {
			return nil, fmt.Errorf("service: shard %d: %w", i, err)
		}
		sh := &Shard{
			id:  i,
			m:   m,
			sys: sys.(core.StepSystem),
			lat: obs.NewLatencyRecorder(),
			rec: timeseries.NewRecorder(cfg.Window),
		}
		sh.rec.SetFreqGHz(m.Config().Costs.FreqGHz)
		m.AttachEventSink(sh.rec)
		// Capacity: every key can be resident, plus in-flight churn headroom.
		sh.tab = hashtable.New(m, cfg.Buckets, cfg.KeyRange+2*cfg.Strands+64)
		sh.lockOwner = m.Mem().Alloc(cfg.KeyRange, sim.WordsPerLine)
		sh.stagedVal = m.Mem().Alloc(cfg.KeyRange, sim.WordsPerLine)
		sh.stagedOp = m.Mem().Alloc(cfg.KeyRange, sim.WordsPerLine)
		sh.batch = make([]batchStrand, cfg.Strands)
		for s := range sh.batch {
			b := &sh.batch[s]
			b.f, b.sh, b.s = f, sh, m.Strand(s)
			b.ses = sh.tab.NewSession(sh.sys, b.s)
			b.fn = b.step
		}
		sh.startBatch = sh.startBatchStrand
		f.shards = append(f.shards, sh)
	}
	// The paper's standard half-full prepopulation, split by the router so
	// every shard owns exactly its keys.
	for _, key := range workload.PrepopHalf(cfg.KeyRange) {
		sh := f.shards[router.Shard(key)]
		sh.tab.Prepopulate(sh.m.Mem(), []uint64{key}, 1)
	}
	return f, nil
}

// steppable reports why the service tier's only driver, the continuation
// driver (sim.Machine.RunStepped), cannot run sys's atomic blocks on shard
// machine m, or nil when it can.
func steppable(m *sim.Machine, sys core.System) error {
	if !core.CanStep(sys) {
		return fmt.Errorf("system %q has no continuation-machine form (core.StepSystem)", sys.Name())
	}
	if !m.CanRunStepped() {
		return fmt.Errorf("machine's HTM design point cannot run on the continuation driver")
	}
	return nil
}

// Shards returns the fleet's shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Recycle recycles every shard machine (see sim.Machine.Recycle), handing
// their host arrays to the next fleet. Call it only after the fleet's last
// use: a second Recycle is a no-op, and Run on a recycled fleet panics.
func (f *Fleet) Recycle() {
	for _, sh := range f.shards {
		sh.m.Recycle()
	}
}

// Router returns the fleet's shard map.
func (f *Fleet) Router() ShardMap { return f.router }

// LoadSpec describes the offered load: an open-loop fleet-level arrival
// process over a key distribution and op mix, with a cross-shard
// transaction fraction.
type LoadSpec struct {
	// Requests is the total request count.
	Requests int
	// PctLookup is the lookup percentage; the rest split insert/delete
	// (workload.KVMix semantics).
	PctLookup int
	// Keys is the key distribution over the fleet keyspace.
	Keys workload.Keys
	// Arrival is the fleet-level arrival process (open-loop; a closed-loop
	// zero value makes every request arrive back to back).
	Arrival workload.Arrival
	// CrossPct is the percentage of requests that become two-key
	// multi-shard transactions; the second key draws from the source's
	// dedicated secondary stream, so changing CrossPct never perturbs the
	// primary op/key stream.
	CrossPct int
	// Seed seeds the load source.
	Seed uint64
}

// spec compiles the load into the workload layer's declarative form.
func (l LoadSpec) spec() (workload.Spec, error) {
	sp := workload.KVSpec(l.Keys, l.PctLookup)
	sp.Arrival = l.Arrival
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	if l.Requests <= 0 {
		return sp, fmt.Errorf("service: LoadSpec.Requests must be positive, got %d", l.Requests)
	}
	if l.CrossPct < 0 || l.CrossPct > 100 {
		return sp, fmt.Errorf("service: LoadSpec.CrossPct must be in [0,100], got %d", l.CrossPct)
	}
	return sp, nil
}

// ShardSummary is one shard's end-of-run digest.
type ShardSummary struct {
	Ops uint64             `json:"ops"`
	Lat obs.LatencySummary `json:"latency"`
	// MachineCycles is how far the shard machine's clock advanced — shard
	// CPU time, the utilization numerator.
	MachineCycles int64 `json:"machine_cycles"`
}

// Result is one fleet run's outcome.
type Result struct {
	// Requests is the completed request count (every request completes).
	Requests uint64 `json:"requests"`
	// ElapsedCycles is the fleet cycle of the last completion.
	ElapsedCycles int64 `json:"elapsed_cycles"`
	// Seconds is ElapsedCycles in simulated seconds.
	Seconds float64 `json:"seconds"`
	// Lat is the fleet-wide request-latency digest (queueing included).
	Lat obs.LatencySummary `json:"latency"`
	// Committed2PC and Aborted2PC count cross-shard transaction outcomes;
	// aborts are coordinator crashes or prepare conflicts, and every abort
	// leaves all participants at their pre-transaction state.
	Committed2PC uint64 `json:"committed_2pc"`
	Aborted2PC   uint64 `json:"aborted_2pc"`
	// Shards is the per-shard digest, index = shard ID.
	Shards []ShardSummary `json:"shards"`
	// Series is each shard's windowed timeseries (machine-cycle windows;
	// latencies are recorded at completion with fleet queueing included).
	Series []timeseries.Series `json:"series"`
	// Stats is the merged TM-system statistics across all shards.
	Stats *core.Stats `json:"-"`
}

// Throughput returns fleet requests per microsecond of simulated time.
func (r Result) Throughput() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Requests) / (r.Seconds * 1e6)
}

// Run offers the load to the fleet and returns the run's digest. It may
// be called once per fleet (machines accumulate state).
func (f *Fleet) Run(load LoadSpec) (Result, error) {
	sp, err := load.spec()
	if err != nil {
		return Result{}, err
	}
	compiled, err := sp.Compile()
	if err != nil {
		return Result{}, err
	}
	src := compiled.Source(load.Seed)
	for i := 0; i < load.Requests; i++ {
		at := src.NextArrival()
		opIdx, key := src.Next()
		kind := opKindOf(opIdx)
		r := Request{arrival: at, n: 1}
		r.ops[0] = Op{Kind: kind, Key: key, Val: sim.Word(i + 1)}
		if load.CrossPct > 0 && src.ExtraRoll(100) < load.CrossPct {
			r.ops[1] = Op{Kind: kind, Key: src.ExtraKey(), Val: sim.Word(i + 1)}
			r.n = 2
		}
		f.flushDue(at)
		f.enqueue(r, src)
	}
	f.drain(src)
	return f.result(load), nil
}

// opKindOf maps a workload.KVMix op index to the service op kind.
func opKindOf(idx int) OpKind {
	switch idx {
	case workload.OpInsert:
		return Insert
	case workload.OpDelete:
		return Delete
	}
	return Lookup
}

// enqueue routes a request to its coordinator shard's batch, flushing the
// batch immediately when it reaches MaxSize. The coordinator is the first
// op's shard; a multi-op request rides the same queue and runs its 2PC
// when the batch executes.
func (f *Fleet) enqueue(r Request, src *workload.Source) {
	sh := f.shards[f.router.Shard(r.ops[0].Key)]
	if len(sh.queue) == 0 {
		sh.closeAt = r.arrival + f.cfg.Batch.MaxDelay
	}
	sh.queue = append(sh.queue, r)
	if len(sh.queue) >= f.cfg.Batch.MaxSize {
		f.flush(sh, r.arrival, src)
	}
}

// flushDue flushes every batch whose deadline has passed by fleet time t,
// in (deadline, shard ID) order — the deterministic event order.
func (f *Fleet) flushDue(t int64) {
	for {
		var sh *Shard
		for _, s := range f.shards {
			if len(s.queue) == 0 || s.closeAt > t {
				continue
			}
			if sh == nil || s.closeAt < sh.closeAt || (s.closeAt == sh.closeAt && s.id < sh.id) {
				sh = s
			}
		}
		if sh == nil {
			return
		}
		f.flush(sh, sh.closeAt, nil)
	}
}

// drain flushes every remaining batch in (deadline, shard ID) order.
func (f *Fleet) drain(src *workload.Source) {
	for {
		var sh *Shard
		for _, s := range f.shards {
			if len(s.queue) == 0 {
				continue
			}
			if sh == nil || s.closeAt < sh.closeAt || (s.closeAt == sh.closeAt && s.id < sh.id) {
				sh = s
			}
		}
		if sh == nil {
			return
		}
		f.flush(sh, sh.closeAt, src)
	}
}

// flush executes one shard's batch. Single-shard requests run inside one
// RunStepped, spread round-robin across the shard's strands; multi-op
// requests then run their cross-shard transactions sequentially at the
// coordinator. closeTime is the fleet cycle the batch closed; execution
// starts once the shard machine is free.
func (f *Fleet) flush(sh *Shard, closeTime int64, src *workload.Source) {
	start := closeTime
	if sh.busyUntil > start {
		start = sh.busyUntil
	}
	sh.singles, sh.multis = sh.singles[:0], sh.multis[:0]
	for _, r := range sh.queue {
		if r.n == 1 {
			sh.singles = append(sh.singles, r)
		} else {
			sh.multis = append(sh.multis, r)
		}
	}
	sh.queue = sh.queue[:0]
	if len(sh.singles) > 0 {
		sh.batchStart, sh.batchDur = start, 0
		sh.m.RunStepped(sh.startBatch)
		sh.busyUntil = start + sh.batchDur
	} else if sh.busyUntil < start {
		sh.busyUntil = start
	}
	for i := range sh.multis {
		r := &sh.multis[i]
		failAfter := -1
		if src != nil && f.cfg.CoordFailPct > 0 && src.ExtraRoll(100) < f.cfg.CoordFailPct {
			failAfter = src.ExtraRoll(r.n)
		}
		out := f.RunTxn(sh.busyUntil, r.ops[:r.n], failAfter)
		f.complete(sh, sh.m.Strand(0).Clock(), out.Completed, r.arrival)
	}
}

// startBatchStrand is the batch's RunStepped start callback: it rewinds
// strand st's continuation to the strand's first request.
func (sh *Shard) startBatchStrand(st *sim.Strand) sim.StepFn {
	b := &sh.batch[st.ID()]
	b.idx, b.t0, b.sub = st.ID(), st.Clock(), nil
	return b.fn
}

// step runs the strand's requests forward, arming each one's session
// operation, until they are all done (true) or the strand must yield.
func (b *batchStrand) step() bool {
	sh, st := b.sh, b.s
	for ; b.idx < len(sh.singles); b.idx += b.f.cfg.Strands {
		r := &sh.singles[b.idx]
		if b.sub == nil {
			op := r.ops[0]
			switch op.Kind {
			case Lookup:
				b.sub = b.ses.StepLookup(op.Key)
			case Insert:
				b.sub = b.ses.StepInsert(op.Key, op.Val)
			default:
				b.sub = b.ses.StepDelete(op.Key)
			}
		}
		if !b.sub.Step() {
			return false
		}
		b.sub = nil
		off := st.Clock() - b.t0
		b.f.complete(sh, st.Clock(), sh.batchStart+off, r.arrival)
	}
	if d := st.Clock() - b.t0; d > sh.batchDur {
		sh.batchDur = d
	}
	return true
}

// complete records one request's completion: machineCycle is the shard
// machine clock at completion (the window the latency lands in),
// fleetCycle the completion in fleet time, arrival the request's arrival.
func (f *Fleet) complete(sh *Shard, machineCycle, fleetCycle, arrival int64) {
	lat := fleetCycle - arrival
	sh.lat.Record(lat)
	f.lat.Record(lat)
	sh.rec.RecordLatencyAt(machineCycle, lat)
	sh.ops++
	if fleetCycle > f.lastComplete {
		f.lastComplete = fleetCycle
	}
}

// result assembles the run digest.
func (f *Fleet) result(load LoadSpec) Result {
	res := Result{
		Requests:      uint64(load.Requests),
		ElapsedCycles: f.lastComplete,
		Seconds:       f.shards[0].m.Seconds(f.lastComplete),
		Lat:           f.lat.Summarize(),
		Committed2PC:  f.committed2PC,
		Aborted2PC:    f.aborted2PC,
		Stats:         core.NewStats(),
	}
	for _, sh := range f.shards {
		res.Shards = append(res.Shards, ShardSummary{
			Ops:           sh.ops,
			Lat:           sh.lat.Summarize(),
			MachineCycles: sh.m.MaxClock(),
		})
		res.Series = append(res.Series, sh.rec.Series())
		res.Stats.Merge(sh.sys.Stats())
	}
	return res
}

// ShardState returns shard i's semantic store state — every resident
// key→value binding, read directly (no cycles charged). Together with
// LockOwners it is the state the 2PC abort-path property test compares.
func (f *Fleet) ShardState(i int) map[uint64]sim.Word {
	sh := f.shards[i]
	out := map[uint64]sim.Word{}
	setup := core.Setup{Mem: sh.m.Mem()}
	for k := 0; k < f.cfg.KeyRange; k++ {
		if v, ok := sh.tab.Lookup(setup, uint64(k)); ok {
			out[uint64(k)] = v
		}
	}
	return out
}

// LockOwners returns shard i's nonzero 2PC lock owners (key → txid). A
// quiescent fleet must report none.
func (f *Fleet) LockOwners(i int) map[uint64]uint64 {
	sh := f.shards[i]
	out := map[uint64]uint64{}
	for k := 0; k < f.cfg.KeyRange; k++ {
		if o := sh.m.Mem().Peek(sh.lockOwner + sim.Addr(k)); o != 0 {
			out[uint64(k)] = uint64(o)
		}
	}
	return out
}
