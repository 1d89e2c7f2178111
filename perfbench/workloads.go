package main

import (
	"fmt"
	"runtime"

	"rocktm/internal/bench"
	"rocktm/internal/core"
	"rocktm/internal/hytm"
	"rocktm/internal/locktm"
	"rocktm/internal/phtm"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/stm/tl2"
	"rocktm/internal/tle"
	"rocktm/internal/workload"
)

// timedOps is the -ops value of a timed child run: the figures default,
// so each workload is the figure exactly as the paper's sweep renders it.
const timedOps = 4000

// setupOps is the -ops value of a set-up run: every machine, structure
// and TM system is still built and prepopulated, and the figure is still
// rendered, but next to nothing is simulated.
const setupOps = 1

// A workloadDef is one cold `figures` invocation (the child the end-to-end
// metrics time) plus the in-process description of its cells that the
// traced pass replays from public constructors. Why each was chosen is in
// README.md.
type workloadDef struct {
	name string
	exp  string // figures -exp
	// parallel is the figures -parallel value; 0 means the host CPU count.
	parallel int
	// figure is the bench figure function the child renders for exp; the
	// traced pass calls it in-process through a serial runner.Pool.
	figure func(bench.Options) (*bench.Figure, error)
	cells  []cell
}

func (w *workloadDef) workers() int {
	if w.parallel > 0 {
		return w.parallel
	}
	return runtime.NumCPU()
}

// cellKey names one figure point: its curve and its x value (threads for
// the kv figures, shards for the fleet).
type cellKey struct {
	Curve string
	X     int
}

func (k cellKey) String() string { return fmt.Sprintf("%s@%d", k.Curve, k.X) }

// A cell is one figure point the traced pass can rebuild and rerun.
type cell struct {
	key    cellKey
	replay func(tr *tracer, seed uint64, ops int) cellResult
}

// sysBuilder is one TM system constructor, named as the figure's legend.
type sysBuilder struct {
	name  string
	build func(m *sim.Machine) core.System
}

// kvSystems are Figures 1 and 2's six systems, in legend order, built
// exactly as the bench package builds them.
func kvSystems() []sysBuilder {
	return []sysBuilder{
		{"phtm", func(m *sim.Machine) core.System {
			return phtm.New(m, sky.New(m), phtm.DefaultConfig())
		}},
		{"phtm-tl2", func(m *sim.Machine) core.System {
			s := phtm.New(m, tl2.New(m), phtm.DefaultConfig())
			s.SetName("phtm-tl2")
			return s
		}},
		{"hytm", func(m *sim.Machine) core.System {
			return hytm.New(sky.New(m), hytm.DefaultConfig())
		}},
		{"stm", func(m *sim.Machine) core.System { return sky.New(m) }},
		{"stm-tl2", func(m *sim.Machine) core.System { return tl2.New(m) }},
		{"one-lock", func(m *sim.Machine) core.System { return locktm.NewOneLock(m) }},
	}
}

// fleetSystems are the fleet experiment's four systems, in legend order.
func fleetSystems() []sysBuilder {
	return []sysBuilder{
		{"phtm", func(m *sim.Machine) core.System {
			return phtm.New(m, sky.New(m), phtm.DefaultConfig())
		}},
		{"tle", func(m *sim.Machine) core.System {
			return tle.New("tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, tle.DefaultPolicy())
		}},
		{"stm", func(m *sim.Machine) core.System { return sky.New(m) }},
		{"one-lock", func(m *sim.Machine) core.System { return locktm.NewOneLock(m) }},
	}
}

// kvCells lays out a kv figure's cells curve-major, as the figure does.
func kvCells(c kvCell) []cell {
	var cells []cell
	for _, sb := range kvSystems() {
		for _, th := range bench.DefaultThreads {
			c := c
			c.sys, c.threads = sb, th
			cells = append(cells, cell{key: cellKey{sb.name, th}, replay: c.replay})
		}
	}
	return cells
}

// fleetCells lays out the fleet figure's cells: system × scenario ×
// cross-shard fraction curves over the shard axis.
func fleetCells() []cell {
	var cells []cell
	for _, sb := range fleetSystems() {
		for _, sc := range fleetScenarios() {
			for _, cross := range []int{0, 10} {
				name := sb.name + "/" + sc.name
				if cross > 0 {
					name += fmt.Sprintf("+x%d", cross)
				}
				for _, shards := range []int{1, 2, 4} {
					c := fleetCell{sys: sb, scenario: sc, cross: cross, shards: shards}
					cells = append(cells, cell{key: cellKey{name, shards}, replay: c.replay})
				}
			}
		}
	}
	return cells
}

// workloads is the benchmark's workload set, in the order README.md
// describes them.
func workloads() []*workloadDef {
	return []*workloadDef{
		{
			name: "rbtree-read", exp: "fig2a", parallel: 1, figure: bench.Fig2a,
			cells: kvCells(kvCell{keyRange: 128, pctLookup: 100, memWords: 1 << 22}),
		},
		{
			name: "hash-write", exp: "fig1b", parallel: 1, figure: bench.Fig1b,
			cells: kvCells(kvCell{keyRange: 128000, pctLookup: 0, memWords: 1 << 24, buckets: 1 << 17}),
		},
		{
			name: "fleet-open", exp: "fleet", figure: bench.FleetFigure,
			cells: fleetCells(),
		},
	}
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// figuresArgs is the whole command line a child `figures` run gets. It
// passes only -exp, -ops, -seed, -parallel, -no-cache and -json, so the
// benchmark keeps working whichever strand driver the binary ships.
func figuresArgs(w *workloadDef, ops int, seed uint64) []string {
	return []string{
		"-exp", w.exp,
		"-ops", fmt.Sprint(ops),
		"-seed", fmt.Sprint(seed),
		"-parallel", fmt.Sprint(w.workers()),
		"-no-cache",
		"-json",
	}
}

// machineConfig is the bench package's standard cell machine.
func machineConfig(threads, memWords int, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(threads)
	cfg.MemWords = memWords
	cfg.Seed = seed
	cfg.MaxCycles = 1 << 46
	return cfg
}

// kvSpec is the kv figures' operation stream: a uniform key, then the
// lookup/insert/delete roll.
func kvSpec(keyRange, pctLookup int) workload.Spec {
	return workload.KVSpec(workload.Uniform(keyRange), pctLookup)
}
