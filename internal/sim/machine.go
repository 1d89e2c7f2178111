// Package sim implements a deterministic discrete-event simulator of a
// Rock-like chip multiprocessor: up to 64 hardware strands with private L1
// caches, TLBs and branch predictors over a shared L2 and word-addressed
// memory, plus the checkpoint-based best-effort hardware transactional
// memory that the paper studies.
//
// Strands are coroutines scheduled cooperatively in virtual-time order: a
// baton is passed so that exactly one strand executes at any moment, and a
// strand yields the baton whenever its cycle clock runs more than a quantum
// ahead of the laggard. This gives three properties the experiments need:
// runs are bit-for-bit reproducible, there are no Go data races by
// construction, and 1–16-"thread" scaling curves are meaningful even on a
// single-core host because throughput is computed from simulated cycles,
// not wall time. Like Rock's hardware contexts, the coroutines persist:
// Machine.Run borrows them from a process-wide set of idle workers and
// returns them afterwards, so repeated runs reuse goroutines whose stacks
// have already grown.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"
	"runtime"
	"sync"

	"rocktm/internal/obs"
)

// MaxStrands is the largest number of strands a machine supports (the
// coherence directory uses 64-bit presence masks). A Rock chip has 32.
const MaxStrands = 64

// DefaultMicroDTLB is the micro-DTLB size used both by DefaultConfig and by
// New's zero-value fallback. All of the paper-reconstruction experiments
// run with this value: it is large enough that micro-DTLB capacity misses
// are not the dominant ST cause in steady state, while a store to a freshly
// mapped page still misses it and needs the dummy-CAS warmup of Section
// 3.1. (Historically DefaultConfig said 64 while New's fallback said 8; the
// single constant removes that trap.)
const DefaultMicroDTLB = 64

// Mode selects the chip execution mode (Section 2 of the paper).
type Mode int

const (
	// SSE — Simultaneous Scout Execution — dedicates both hardware threads
	// of a core to one software thread: the store queue holds 32 entries
	// (two banks of 16) and the deferred queue is larger. All headline data
	// in the paper is taken in SSE mode.
	SSE Mode = iota
	// SE — Scout Execution — runs two software threads per core; each gets
	// a 16-entry store queue (two banks of 8), which makes transactional
	// stores overflow much sooner (the paper's Section 8.1 observes MSF
	// transactions failing with ST|SIZ in SE mode).
	SE
)

// Config describes a simulated machine. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// Strands is the number of hardware strands (software threads for our
	// purposes; in SSE mode each occupies a whole core).
	Strands int
	// MemWords sizes simulated memory, in 64-bit words.
	MemWords int
	// Mode selects SSE (default) or SE execution.
	Mode Mode
	// Seed makes runs reproducible; every strand derives its RNG from it.
	Seed uint64
	// Quantum is the scheduling granularity in cycles: a strand yields once
	// it runs this far ahead of the slowest runnable strand.
	Quantum int64
	// MaxCycles aborts the run (panic) if any strand's clock exceeds it;
	// it is a guard against virtual-time livelock in tests. 0 disables.
	MaxCycles int64

	// Costs is the cycle-cost table.
	Costs Costs

	// L1Sets and L1Ways shape each strand's L1 (default 128×4 = 32 KB).
	L1Sets, L1Ways int
	// L2Sets and L2Ways shape the shared L2 (default 4096×8 = 2 MB).
	L2Sets, L2Ways int
	// MicroDTLB, MainDTLB and ITLB are the translation-buffer sizes.
	MicroDTLB, MainDTLB, ITLB int

	// StoreQueuePerBank is the per-bank store-queue capacity; there are two
	// banks selected by a line-address bit. 0 means mode default (16 in
	// SSE, 8 in SE).
	StoreQueuePerBank int
	// DeferredQueue is the capacity of the deferred-instruction queue;
	// loads that miss the L1 inside a transaction defer their dependents,
	// and overflow aborts with CPS=SIZ. 0 means mode default (32 SSE/16 SE).
	DeferredQueue int
	// DeferPerMiss is how many deferred-queue entries each in-transaction
	// L1 miss consumes.
	DeferPerMiss int

	// CTIAbortProb is the probability that a mispredicted branch inside a
	// transaction aborts it (CPS=CTI).
	CTIAbortProb float64
	// UCTIAbortProb is the probability that a branch issued while the load
	// feeding its predicate is still outstanding aborts the transaction
	// with CPS=UCTI (possibly with a misleading companion bit).
	UCTIAbortProb float64
	// StoreAfterMissProb is the probability that a transactional store
	// whose address depends on an immediately preceding L1-missing load
	// aborts with CPS=ST ("store address unavailable due to an outstanding
	// load miss", Section 3.1).
	StoreAfterMissProb float64
	// ExogProb is the probability that intervening code runs between an
	// abort and the CPS read, replacing the register contents with EXOG.
	ExogProb float64
	// InterruptEvery delivers an asynchronous interrupt to each strand
	// every so many cycles; a transaction in flight aborts with CPS=ASYNC.
	// 0 disables.
	InterruptEvery int64

	// Faults configures deterministic fault injection (see FaultPlan). The
	// zero value injects nothing and leaves every RNG stream untouched, so
	// fault-free runs are bit-for-bit identical to pre-fault-injection
	// builds.
	Faults FaultPlan

	// HTM selects the point in the HTM design space the machine implements
	// (version management, conflict detection/resolution, set-eviction
	// tolerance — see HTMDesign and docs/HTM-DESIGN.md). The zero value is
	// Rock's design and is bit-for-bit identical to builds that predate the
	// knob, pinned by the golden cycle-identity digests.
	HTM HTMDesign
}

// DefaultConfig returns a Rock-flavoured configuration for n strands.
func DefaultConfig(n int) Config {
	return Config{
		Strands:            n,
		MemWords:           1 << 22, // 32 MB
		Mode:               SSE,
		Seed:               1,
		Quantum:            64,
		Costs:              DefaultCosts(),
		L1Sets:             128,
		L1Ways:             4,
		L2Sets:             4096,
		L2Ways:             8,
		MicroDTLB:          DefaultMicroDTLB,
		MainDTLB:           512,
		ITLB:               64,
		DeferPerMiss:       4,
		CTIAbortProb:       0.05,
		UCTIAbortProb:      0.15,
		StoreAfterMissProb: 0.3,
	}
}

// Digest returns a short content hash of the full configuration — every
// field that can change simulated behaviour, including the cost table.
// The experiment runner folds it into cache keys so a result computed
// under one machine configuration is never served for another.
func (c Config) Digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", c)))
	return hex.EncodeToString(h[:8])
}

func (c *Config) storeQueuePerBank() int {
	if c.StoreQueuePerBank > 0 {
		return c.StoreQueuePerBank
	}
	if c.Mode == SE {
		return 8
	}
	return 16
}

func (c *Config) deferredQueue() int {
	if c.DeferredQueue > 0 {
		return c.DeferredQueue
	}
	if c.Mode == SE {
		return 16
	}
	return 32
}

// Machine is one simulated chip: shared memory, shared L2, and a set of
// strands driven in virtual-time order.
type Machine struct {
	cfg Config
	mem *Memory
	l2  *l2Cache

	strands []*Strand

	trc *obs.Tracer
	win obs.EventSink

	// Mode-dependent queue capacities, resolved once at construction so
	// the transaction hot paths never re-branch on cfg.Mode.
	sqPerBank int
	defQueue  int

	// HTM design point, resolved from cfg.HTM at construction for the same
	// reason. All four are their zero values under the default Rock design,
	// and every non-default branch in the transaction paths is gated on
	// them.
	vmEager   bool
	detLazy   bool
	resolve   ConflictResolution
	stickyCap int
	// txSeq issues machine-wide transaction begin timestamps for
	// ResTimestamp arbitration. It advances on every TxBegin regardless of
	// design (host state only — no cycles, no RNG draws), so flipping the
	// Resolve knob never perturbs the RNG streams.
	txSeq uint64

	// Load-conflict doom broadcast, one bit per strand. activeMask mirrors
	// each strand's tx.active flag (set at TxBegin, cleared at commit and
	// abort), so loadConflict can doom every conflicting writer with a
	// single mask operation: cohDoom |= written & activeMask &^ self.
	// Victims fold their bit into the CPS reasons (as COH) at their next
	// checkDoom delivery point, exactly as per-strand dooming did.
	cohDoom    uint64
	activeMask uint64

	// Scheduler state; only Run's driver goroutine touches it.
	//
	// parked is a binary min-heap of parked, not-done strands keyed
	// (clock, id) — the same total order the old O(strands) minParked scan
	// imposed (strict < with ascending iteration = lowest id wins ties).
	// Exactly one strand runs at a time and a parked strand's clock never
	// changes, so the only operations are push and pop-min: handoffs are
	// O(log strands) and the hot maybeYield check is a single compare
	// against the running strand's cached yield deadline.
	parked   []heapNode
	running  bool
	recycled bool
}

// requirePow2 validates that a geometry parameter is a power of two — the
// cache set indexes and the free-slot bitmaps rely on mask arithmetic.
func requirePow2(field string, v int) {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("sim: %s must be a power of two for mask indexing, got %d (round up to %d)",
			field, v, nextPow2(v)))
	}
}

// nextPow2 returns the smallest power of two >= v (for the panic hint).
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// New builds a machine. It panics on nonsensical configurations; machines
// are always constructed from code, not external input.
//
// A machine's life is New → Run (any number of times) → Recycle. New takes
// every large host array — memory backings, L2, and each strand's L1, TLBs
// and branch table — from the process-wide free list that Recycle refills
// (see retired), so in a warm process it allocates none of them and runs no
// initialisation loop: a shelved array is already all zero, which is every
// structure's empty state. Only a free-list miss allocates. The list is
// capped at four machines' and MaxStrands strands' arrays per GOMAXPROCS
// (retiredMachines, retiredStrands).
func New(cfg Config) *Machine {
	if cfg.Strands <= 0 || cfg.Strands > MaxStrands {
		panic(fmt.Sprintf("sim: Strands must be in [1,%d], got %d", MaxStrands, cfg.Strands))
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 64
	}
	if cfg.Costs.FreqGHz == 0 {
		cfg.Costs = DefaultCosts()
	}
	if cfg.L1Sets == 0 {
		cfg.L1Sets, cfg.L1Ways = 128, 4
	}
	if cfg.L2Sets == 0 {
		cfg.L2Sets, cfg.L2Ways = 4096, 8
	}
	if cfg.MicroDTLB == 0 {
		cfg.MicroDTLB = DefaultMicroDTLB
	}
	if cfg.MainDTLB == 0 {
		cfg.MainDTLB = 512
	}
	if cfg.ITLB == 0 {
		cfg.ITLB = 64
	}
	if cfg.DeferPerMiss == 0 {
		cfg.DeferPerMiss = 4
	}
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 22
	}
	// The set indexes and TLB free-slot bitmaps use mask arithmetic, which
	// is only equivalent to the original modulo indexing for power-of-two
	// geometries. Every real machine (and the paper's Rock) is a power of
	// two anyway, so reject anything else loudly instead of simulating a
	// machine subtly different from the one asked for.
	requirePow2("L1Sets", cfg.L1Sets)
	requirePow2("L2Sets", cfg.L2Sets)
	requirePow2("MicroDTLB", cfg.MicroDTLB)
	requirePow2("MainDTLB", cfg.MainDTLB)
	requirePow2("ITLB", cfg.ITLB)
	cfg.HTM.validate()
	m := &Machine{
		cfg:       cfg,
		mem:       newMemory(cfg.MemWords),
		l2:        newL2(cfg.L2Sets, cfg.L2Ways),
		sqPerBank: cfg.storeQueuePerBank(),
		defQueue:  cfg.deferredQueue(),
		vmEager:   cfg.HTM.VM == VMEager,
		detLazy:   cfg.HTM.Detect == DetectLazy,
		resolve:   cfg.HTM.Resolve,
		stickyCap: cfg.HTM.StickyLines,
	}
	// Capacity-squeeze faults override the mode-resolved queue capacities.
	if q := cfg.Faults.SqueezeStoreQueue; q > 0 {
		m.sqPerBank = q
	}
	if q := cfg.Faults.SqueezeDeferredQueue; q > 0 {
		m.defQueue = q
	}
	m.strands = make([]*Strand, cfg.Strands)
	m.parked = make([]heapNode, 0, cfg.Strands)
	for i := range m.strands {
		m.strands[i] = newStrand(m, i)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Mem returns the simulated memory, for setup (Alloc/Poke) and validation
// (Peek) outside timed runs.
func (m *Machine) Mem() *Memory { return m.mem }

// Recycle ends the machine's life: it zeroes the machine's host arrays —
// scrubbing only the simulated pages written since New — and shelves them
// on the process-wide free list for the next New. Call it after the
// machine's last use, including Peek-based validation; clocks and
// statistics stay readable, but Run and RunStepped panic and any memory,
// cache or TLB access indexes an empty array and panics. Recycling twice is
// a no-op. It is a host-side allocation strategy only and never changes
// what a simulation computes.
func (m *Machine) Recycle() {
	if m.recycled {
		return
	}
	m.recycled = true
	m.mem.recycle()
	m.l2.release()
	for _, s := range m.strands {
		s.release()
	}
}

// checkRunnable rejects a Run on a recycled or already running machine.
func (m *Machine) checkRunnable() {
	if m.recycled {
		panic("sim: Run on a recycled machine")
	}
	if m.running {
		panic("sim: Run re-entered")
	}
}

// Strand returns strand i for pre-run configuration (it must not be driven
// outside Run).
func (m *Machine) Strand(i int) *Strand { return m.strands[i] }

// AttachTracer points every strand's trace hook at t (nil detaches).
// Attaching a tracer does not change a run's virtual-time behaviour in any
// way; it only records what happened.
func (m *Machine) AttachTracer(t *obs.Tracer) {
	m.trc = t
	for _, s := range m.strands {
		s.trc = t
	}
}

// StartTrace attaches a fresh tracer with the given per-strand ring
// capacity (<=0 selects the obs default) and returns it.
func (m *Machine) StartTrace(perStrandCap int) *obs.Tracer {
	t := obs.NewTracer(len(m.strands), perStrandCap)
	t.SetFreqGHz(m.cfg.Costs.FreqGHz)
	m.AttachTracer(t)
	return t
}

// Tracer returns the attached tracer, or nil.
func (m *Machine) Tracer() *obs.Tracer { return m.trc }

// AttachEventSink points every strand's trace hook at the streaming sink
// (nil detaches). Like AttachTracer it cannot change a run's virtual-time
// behaviour; a sink and a tracer may be attached simultaneously.
func (m *Machine) AttachEventSink(k obs.EventSink) {
	m.win = k
	for _, s := range m.strands {
		s.win = k
	}
}

// EventSink returns the attached streaming sink, or nil.
func (m *Machine) EventSink() obs.EventSink { return m.win }

// PublishMetrics registers every strand's event counters with the unified
// metrics registry under the "sim" subsystem, keyed by strand.
func (m *Machine) PublishMetrics(reg *obs.Registry) {
	for _, s := range m.strands {
		s := s
		reg.RegisterStrand("sim", s.id, func() obs.Sample { return s.stats.Sample() })
	}
}

// Run executes body(strand) on every strand concurrently in virtual time
// and returns once all bodies have returned. A strand runs only while it
// holds the baton, so bodies may freely share simulated memory. Run may be
// called repeatedly; strand clocks, caches and predictors persist across
// calls (use a fresh Machine for an independent experiment).
//
// Each strand body runs on a coroutine (iter.Pull) borrowed from the
// process-wide idle worker set, and this driver loop resumes whichever
// parked strand has the lowest (clock, id) — the same handoff decisions
// the old strand-to-strand channel baton made, executed as direct
// goroutine switches instead of park/wake round trips through the Go
// scheduler (~5x cheaper per handoff on a single-core host). Workers go
// back to the idle set when Run returns, keeping their grown stacks, so a
// warm Run creates no goroutine and allocates nothing. A body panic (e.g.
// the MaxCycles livelock guard) propagates out of Run on the caller's
// goroutine; iter.Pull likewise forwards runtime.Goexit (t.Fatal inside a
// body), so Run never deadlocks on a dead strand. After such an exit the
// dead worker and the workers parked mid-body are abandoned, never
// reused.
func (m *Machine) Run(body func(*Strand)) {
	m.checkRunnable()
	m.running = true
	m.parked = m.parked[:0]
	for _, s := range m.strands {
		s.parked = true
		m.heapPush(s)
	}
	m.lendWorkers(body)
	finished := false
	defer func() {
		if !finished {
			m.abandonWorkers()
		}
	}()
	// Hand the baton to the strand with the lowest clock; keep handing it
	// to the laggard until every body has returned.
	c := m.heapPop()
	for {
		c.parked = false
		m.grant(c)
		if c.w.resume(); !c.w.done {
			// c's body called yieldBaton: park it, resume the laggard.
			// heapReplaceMin(c) is the pop-then-push of the old handoff
			// fused into one sift-down.
			c.parked = true
			c = m.heapReplaceMin(c)
			continue
		}
		// c's body returned; its worker waits for the next body.
		if len(m.parked) == 0 {
			break
		}
		c = m.heapPop()
	}
	finished = true
	m.returnWorkers()
	m.running = false
}

// worker is one strand coroutine that outlives the Run call it serves:
// an iter.Pull goroutine that loops, running each body it is lent, marking
// it done and yielding. The driver tells a finished body from a mid-body
// yield by that mark. While idle a worker holds no strand, machine or body
// reference, so the pool never pins a retired machine's memory.
type worker struct {
	resume func() (struct{}, bool)
	cancel func()

	// s and body are the next strand and body to run; the worker clears
	// body when it starts it and s once the body has returned.
	s    *Strand
	body func(*Strand)
	done bool
}

func newWorker() *worker {
	w := new(worker)
	w.resume, w.cancel = iter.Pull(func(yield func(struct{}) bool) {
		for {
			s, body := w.s, w.body
			w.body = nil
			s.yield = yield
			body(s)
			s.yield = nil
			w.s, w.done = nil, true
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}

// idleWorkers is the process-wide set of idle workers. Runner cells call
// Run on several goroutines at once, hence the mutex.
var idleWorkers struct {
	sync.Mutex
	w []*worker
}

// maxIdleWorkers caps the idle set at one full machine of strands per
// processor that can be inside a Run at once; workers returned past the
// cap are cancelled.
var maxIdleWorkers = MaxStrands * runtime.GOMAXPROCS(0)

// lendWorkers gives every strand an idle worker (a new one when the set
// runs dry) primed with body.
func (m *Machine) lendWorkers(body func(*Strand)) {
	idleWorkers.Lock()
	for _, s := range m.strands {
		if n := len(idleWorkers.w) - 1; n >= 0 {
			s.w = idleWorkers.w[n]
			idleWorkers.w[n] = nil
			idleWorkers.w = idleWorkers.w[:n]
		}
	}
	idleWorkers.Unlock()
	for _, s := range m.strands {
		if s.w == nil {
			s.w = newWorker()
		}
		s.w.s, s.w.body, s.w.done = s, body, false
	}
}

// returnWorkers puts the strands' workers back in the idle set, cancelling
// those past its cap. A strand without a worker is skipped.
func (m *Machine) returnWorkers() {
	idleWorkers.Lock()
	i := 0
	for ; i < len(m.strands) && len(idleWorkers.w) < maxIdleWorkers; i++ {
		if w := m.strands[i].w; w != nil {
			idleWorkers.w = append(idleWorkers.w, w)
		}
		m.strands[i].w = nil
	}
	idleWorkers.Unlock()
	for _, s := range m.strands[i:] {
		if s.w != nil {
			s.w.cancel()
			s.w = nil
		}
	}
}

// abandonWorkers cleans up after a body panicked or called
// runtime.Goexit. The worker that died and the workers parked mid-body
// cannot be reused (unwinding a parked body safely is impossible), so they
// are dropped; workers whose body never started or already returned are
// returned.
func (m *Machine) abandonWorkers() {
	for _, s := range m.strands {
		switch w := s.w; {
		case w.body != nil:
			w.s, w.body = nil, nil
		case !w.done:
			s.w = nil
		}
	}
	m.returnWorkers()
}

// CanRunStepped reports whether this machine's HTM design point supports
// the continuation driver. Requester-loses arbitration (committer-wins,
// timestamp) stalls a NACKed requester *inside* the interrupted memory
// operation (resolveArb) — a second advance mid-operation that RunStepped's
// re-invoke-from-entry contract cannot resume — so those design points stay
// on the coroutine driver.
func (m *Machine) CanRunStepped() bool { return m.resolve == ResRequesterWins }

// StepFn is one strand's continuation body under RunStepped: each call runs
// the strand forward until it either finishes (return true) or crosses its
// yield deadline (return false with Strand.YieldPending() set). A step body
// that pauses must re-invoke the interrupted simulated operation when next
// called — the driver has undone the operation's cycle charge, so re-running
// it from its advance reproduces the coroutine driver's timing exactly.
type StepFn func() bool

// RunStepped executes a continuation-machine body on every strand
// concurrently in virtual time — the same scheduling contract as Run (one
// baton, lowest (clock, id) first, identical handoff decisions and clocks,
// pinned by the differential golden tests) with no goroutine switch per
// handoff: a strand that runs a full quantum ahead records a pending yield,
// its current operation bails out before any side effect, and control
// returns to this loop through ordinary returns.
//
// start is called once per strand to build its continuation; it must not
// perform simulated work (construct sessions and drivers only). Only step
// bodies whose yield points all surface through YieldPending-aware
// operations may run under this driver; arbitrary bodies stay on Run, the
// general authoring surface.
func (m *Machine) RunStepped(start func(*Strand) StepFn) {
	m.checkRunnable()
	m.running = true
	m.parked = m.parked[:0]
	for _, s := range m.strands {
		s.parked = true
		s.stepped = true
		m.heapPush(s)
		clk := s.clock
		s.stepFn = start(s)
		if s.clock != clk {
			panic("sim: RunStepped start callback performed simulated work")
		}
	}
	c := m.heapPop()
	for {
		c.parked = false
		m.grant(c)
		if c.chargeDebt != 0 {
			// Undo the charge of the operation the pending yield interrupted;
			// the step body re-invokes that operation from its advance, so
			// the clock it resumes at — and every heap decision that follows
			// — is bit-identical to a coroutine resume.
			c.clock -= c.chargeDebt
			c.chargeDebt = 0
		}
		c.yieldPending = false
		if !c.stepFn() {
			if !c.yieldPending {
				panic("sim: step body paused without a pending yield")
			}
			c.parked = true
			c = m.heapReplaceMin(c)
			continue
		}
		if c.yieldPending {
			panic("sim: step body finished with a pending yield")
		}
		c.stepped = false
		c.stepFn = nil
		if len(m.parked) == 0 {
			break
		}
		c = m.heapPop()
	}
	m.running = false
}

// yieldSentinel is the cached yield deadline when no handoff can ever be
// needed (no parked strand exists): far beyond any reachable clock.
const yieldSentinel = int64(1) << 62

// grant computes and caches s's yield deadline as it receives the baton:
// the clock at which it will have run a full quantum ahead of the laggard.
// Nothing can change the heap while s runs, so the deadline stays valid
// until s itself parks, finishes, or pops a strand — making the per-advance
// scheduling check a single compare.
func (m *Machine) grant(s *Strand) {
	if len(m.parked) == 0 {
		// No parked strand ⇔ runnable <= 1: never yield.
		s.yieldLimit = yieldSentinel
	} else {
		s.yieldLimit = int64(m.parked[0].key>>heapIDBits) + m.cfg.Quantum
	}
	s.recomputeLimit()
}

// heapNode is one parked strand with its ordering key packed into a
// single uint64: clock<<6 | id. Because id < MaxStrands = 64 fits in the
// low 6 bits and clocks are non-negative, unsigned comparison of packed
// keys is exactly the (clock, id) lexicographic order of the original
// linear minParked scan — and sift operations compare inline integers
// instead of chasing two *Strand pointers per step.
type heapNode struct {
	key uint64
	s   *Strand
}

// heapKey packs s's current (clock, id) ordering key.
func heapKey(s *Strand) uint64 {
	return uint64(s.clock)<<heapIDBits | uint64(s.id)
}

// heapIDBits is the width of the id field in a packed heap key;
// 1<<heapIDBits must be >= MaxStrands.
const heapIDBits = 6

// heapPush parks s into the scheduler heap.
func (m *Machine) heapPush(s *Strand) {
	h := append(m.parked, heapNode{heapKey(s), s})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[i].key >= h[p].key {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	m.parked = h
}

// heapReplaceMin atomically pops the minimum strand and parks s in its
// place with a single sift-down — the yield handoff in one heap operation.
// Because (clock, id) is a strict total order, the sequence of future pops
// and the identity of parked[0] depend only on the heap's *contents*, not
// its internal layout, so replace-min is observably identical to the
// pop-then-push it replaces.
func (m *Machine) heapReplaceMin(s *Strand) *Strand {
	h := m.parked
	n := len(h)
	top := h[0].s
	h[0] = heapNode{heapKey(s), s}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].key < h[least].key {
			least = l
		}
		if r < n && h[r].key < h[least].key {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// heapPop removes and returns the parked strand with the lowest
// (clock, id). It must only be called when one exists.
func (m *Machine) heapPop() *Strand {
	h := m.parked
	n := len(h) - 1
	if n < 0 {
		panic("sim: no parked strand")
	}
	top := h[0].s
	h[0] = h[n]
	h[n] = heapNode{}
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].key < h[least].key {
			least = l
		}
		if r < n && h[r].key < h[least].key {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	m.parked = h
	return top
}

// MaxClock returns the largest strand clock — the elapsed virtual time of
// the run so far, in cycles.
func (m *Machine) MaxClock() int64 {
	var max int64
	for _, s := range m.strands {
		if s.clock > max {
			max = s.clock
		}
	}
	return max
}

// Seconds converts cycles to simulated seconds at the configured frequency.
func (m *Machine) Seconds(cycles int64) float64 {
	return float64(cycles) / (m.cfg.Costs.FreqGHz * 1e9)
}

// ElapsedSeconds returns MaxClock in simulated seconds.
func (m *Machine) ElapsedSeconds() float64 { return m.Seconds(m.MaxClock()) }
