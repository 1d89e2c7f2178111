package bench

import (
	"fmt"
	"sync"

	"rocktm/internal/core"
	"rocktm/internal/hashtable"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/rbtree"
	"rocktm/internal/runner"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

// kvStructure is the surface the hash-table and red-black-tree experiments
// share: complete operations under a synchronization system. NewSession
// returns a per-strand operation context whose steady-state host cost is
// allocation-free; it performs the identical simulated operations as the
// per-call XxxOp wrappers.
type kvStructure interface {
	InsertOp(sys core.System, s *sim.Strand, key uint64, val sim.Word) bool
	DeleteOp(sys core.System, s *sim.Strand, key uint64) bool
	LookupOp(sys core.System, s *sim.Strand, key uint64) (sim.Word, bool)
	NewSession(sys core.System, s *sim.Strand) kvSession
}

// kvSession is the per-strand view of a kvStructure. The StepXxx methods
// arm the same operations as continuation machines for the stepped
// scheduler; they may only be called when the session's system implements
// core.StepSystem.
type kvSession interface {
	Insert(key uint64, val sim.Word) bool
	Delete(key uint64) bool
	Lookup(key uint64) (sim.Word, bool)

	StepInsert(key uint64, val sim.Word) core.StepBlock
	StepDelete(key uint64) core.StepBlock
	StepLookup(key uint64) core.StepBlock
}

// kvConfig describes one key-value experiment cell.
type kvConfig struct {
	keyRange  int
	pctLookup int // percentage of lookups; the rest split 50/50 insert/delete
	memWords  int
	build     func(m *sim.Machine, keyRange int) kvStructure
	validate  func(st kvStructure, mem *sim.Memory) error

	// keys optionally overrides the key distribution; the zero value means
	// the legacy uniform draw over [0, keyRange). Skewed figures (the tail
	// experiment) set it to a zipfian or hotspot distribution.
	keys workload.Keys
	// arrival optionally switches the drivers to an open-loop arrival
	// process; the zero value is the legacy closed loop.
	arrival workload.Arrival
}

// spec is the declarative form of the kv driver loop: key drawn first
// (uniform over the key range unless overridden), then the lookup/insert/
// delete roll out of 100 — exactly the legacy loop's RNG sequence.
func (cfg kvConfig) spec() workload.Spec {
	keys := cfg.keys
	if keys.Dist == workload.KeyNone {
		keys = workload.Uniform(cfg.keyRange)
	}
	sp := workload.KVSpec(keys, cfg.pctLookup)
	sp.Arrival = cfg.arrival
	return sp
}

// runKV measures one (system, threads) cell: prepopulate with half the key
// range, then run opsPerThread operations per thread through the shared
// workload driver. When the options carry a timeline sink, the run's
// window series is deposited under the same label as its event trace.
func runKV(o Options, label string, cfg kvConfig, sb SysBuilder, threads int) (Point, error) {
	p, series, err := runKVSeries(o, label, cfg, sb, threads, o.Timeline != nil, o.TimelineWindow)
	if err == nil && o.Timeline != nil {
		o.Timeline.Add(fmt.Sprintf("%s/%s@%dT", label, sb.Name, threads), series)
	}
	return p, err
}

// runKVSeries is runKV's core with explicit windowed-capture control:
// when capture is set, a timeseries recorder at the given width observes
// the run (hook-point events via the machine sink, per-op latencies via
// the driver) and the resulting series is returned alongside the point.
// The recorder follows the zero-perturbation contract, so the point is
// bit-identical with capture on or off (pinned by timeline_test.go).
func runKVSeries(o Options, label string, cfg kvConfig, sb SysBuilder, threads int, capture bool, width int64) (Point, timeseries.Series, error) {
	m := machineFor(threads, cfg.memWords, o.Seed)
	defer m.Recycle()
	st := cfg.build(m, cfg.keyRange)
	sys := sb.Build(m)
	wl := workload.MustCompile(cfg.spec())
	lat := o.latRecorder()
	tr := o.startTrace(m)
	var rec *timeseries.Recorder
	if capture {
		rec = attachWindows(m, width)
	}
	if o.stepSched() && m.CanRunStepped() && core.CanStep(sys) {
		m.RunStepped(func(s *sim.Strand) sim.StepFn {
			ses := st.NewSession(sys, s)
			d := wl.Driver(s, lat)
			if rec != nil {
				d.Observe(rec)
			}
			return (&d).RunStepped(o.OpsPerThread, func(_, op int, key uint64) core.StepBlock {
				switch op {
				case workload.OpLookup:
					return ses.StepLookup(key)
				case workload.OpInsert:
					return ses.StepInsert(key, 1)
				default:
					return ses.StepDelete(key)
				}
			})
		})
	} else {
		m.Run(func(s *sim.Strand) {
			ses := st.NewSession(sys, s)
			d := wl.Driver(s, lat)
			if rec != nil {
				d.Observe(rec)
			}
			d.Run(o.OpsPerThread, func(_, op int, key uint64) {
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
	}
	o.endTrace(tr, fmt.Sprintf("%s/%s@%dT", label, sb.Name, threads))
	var series timeseries.Series
	if rec != nil {
		series = rec.Series()
	}
	if cfg.validate != nil {
		if err := cfg.validate(st, m.Mem()); err != nil {
			return Point{}, series, fmt.Errorf("%s/%d threads: %w", sb.Name, threads, err)
		}
	}
	res := workload.NewResult(uint64(threads*o.OpsPerThread), m.ElapsedSeconds(), sys.Stats(), lat)
	return point(res, threads), series, nil
}

// kvSpec identifies one key-value cell for the runner's cache: the exact
// machine configuration plus the workload knobs the config cannot see. The
// legacy params ("keyrange", "lookup") are kept verbatim so pre-refactor
// cache entries still key identically; new dimensions (skewed keys,
// open-loop arrivals) append only when active.
func kvSpec(o Options, name string, cfg kvConfig, system string, threads int) runner.Spec {
	params := map[string]string{
		"keyrange": itoa(cfg.keyRange),
		"lookup":   itoa(cfg.pctLookup),
	}
	if cfg.keys.Dist != workload.KeyNone {
		params["skew"] = cfg.keys.String()
	}
	if cfg.arrival.MeanGap > 0 {
		params["arrival"] = cfg.arrival.String()
	}
	return o.spec(name, system, threads, machineCfg(threads, cfg.memWords, o.Seed), params)
}

// kvFigure sweeps all systems across the thread axis. Each (system,
// threads) pair is one independent job emitted through the runner; the
// serial fallback executes the same cells inline in the same order.
func kvFigure(o Options, name, title string, cfg kvConfig) (*Figure, error) {
	fig := &Figure{Title: title, YLabel: "throughput (ops/usec), simulated"}
	systems := tmSystems()
	var names []string
	var cells []pointCell
	for _, sb := range systems {
		names = append(names, sb.Name)
		for _, th := range o.Threads {
			sb, th := sb, th
			cells = append(cells, pointCell{
				Spec:    kvSpec(o, name, cfg, sb.Name, th),
				Compute: func() (Point, error) { return runKV(o, title, cfg, sb, th) },
			})
		}
	}
	curves, err := curveCells(o, names, o.Threads, cells)
	if err != nil {
		return nil, err
	}
	fig.Curves = curves
	for _, curve := range curves {
		if last := curve.Points[len(curve.Points)-1]; last.Extra != "" {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%d threads: %s", curve.Name, last.Threads, last.Extra))
		}
	}
	return fig, nil
}

// htKV and rbKV adapt the concrete structures to kvStructure: Go interfaces
// have no covariant returns, so the concrete NewSession (returning *Session)
// needs a one-line wrapper to satisfy the interface.
type htKV struct{ *hashtable.Table }

func (t htKV) NewSession(sys core.System, s *sim.Strand) kvSession {
	return t.Table.NewSession(sys, s)
}

type rbKV struct{ *rbtree.Tree }

func (t rbKV) NewSession(sys core.System, s *sim.Strand) kvSession {
	return t.Tree.NewSession(sys, s)
}

// sharedKeys memoizes one builder's prepopulation keys: a figure's cells
// share a key range, so the first cell to ask builds the slice and every
// cell — on whichever runner goroutine — reads it without writing.
func sharedKeys(gen func(keyRange int) []uint64) func(keyRange int) []uint64 {
	var (
		mu   sync.Mutex
		n    int
		keys []uint64
	)
	return func(keyRange int) []uint64 {
		mu.Lock()
		defer mu.Unlock()
		if keys == nil || n != keyRange {
			keys, n = gen(keyRange), keyRange
		}
		return keys
	}
}

func hashtableKV(buckets int) func(m *sim.Machine, keyRange int) kvStructure {
	keys := sharedKeys(workload.PrepopHalf)
	return func(m *sim.Machine, keyRange int) kvStructure {
		t := hashtable.New(m, buckets, keyRange+2*m.Config().Strands+64)
		t.Prepopulate(m.Mem(), keys(keyRange), 1)
		return htKV{t}
	}
}

func rbtreeKV() func(m *sim.Machine, keyRange int) kvStructure {
	keys := sharedKeys(func(keyRange int) []uint64 { return workload.PrepopHalfShuffled(keyRange, 7) })
	return func(m *sim.Machine, keyRange int) kvStructure {
		t := rbtree.New(m, keyRange+2*m.Config().Strands+64)
		t.Prepopulate(m.Mem(), keys(keyRange), 1)
		return rbKV{t}
	}
}

// Fig1a reconstructs Figure 1(a): hash table, 2^17 buckets, 50% inserts /
// 50% deletes, key range 256.
func Fig1a(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig1a", "Figure 1(a) HashTable keyrange=256, 0% lookups", kvConfig{
		keyRange:  256,
		pctLookup: 0,
		memWords:  1 << 23,
		build:     hashtableKV(1 << 17),
	})
}

// Fig1b reconstructs Figure 1(b): key range 128,000 — the active part of
// the table no longer fits in the L1, leveling the playing field.
func Fig1b(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig1b", "Figure 1(b) HashTable keyrange=128000, 0% lookups", kvConfig{
		keyRange:  128000,
		pctLookup: 0,
		memWords:  1 << 24,
		build:     hashtableKV(1 << 17),
	})
}

// Fig1ReadOnly reconstructs the 100%-lookup observation quoted in Section
// 5's text (data not shown in the paper's graphs).
func Fig1ReadOnly(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig1ro", "Section 5 (text) HashTable keyrange=256, 100% lookups", kvConfig{
		keyRange:  256,
		pctLookup: 100,
		memWords:  1 << 23,
		build:     hashtableKV(1 << 17),
	})
}

// Fig2a reconstructs Figure 2(a): red-black tree, 128 keys, 100% reads.
func Fig2a(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig2a", "Figure 2(a) Red-Black Tree 128 keys, 100% reads", kvConfig{
		keyRange:  128,
		pctLookup: 100,
		memWords:  1 << 22,
		build:     rbtreeKV(),
	})
}

// Fig2b reconstructs Figure 2(b): 2048 keys, 96% reads / 2% inserts / 2%
// deletes — the case where PhTM can fall behind a good STM.
func Fig2b(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig2b", "Figure 2(b) Red-Black Tree 2048 keys, 96% reads 2% ins 2% del", kvConfig{
		keyRange:  2048,
		pctLookup: 96,
		memWords:  1 << 22,
		build:     rbtreeKV(),
	})
}
