package bench

import (
	"fmt"

	"rocktm/internal/phtm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/workload"
)

// The htmdesign sweep replays three contrasting workloads against every
// named HTM design point (sim.DesignPointNames):
//
//   - rbtree: the Figure 2(b) red-black tree (2048 keys, 96% reads) —
//     deep transactions whose capacity and conflict behaviour exposed the
//     E23 tail pathology; the design axes move both its abort mix and who
//     pays for each conflict.
//   - hash: the Figure 1(a) hash table at key range 256 with 0% lookups —
//     short write-only transactions under genuine line contention, the
//     livelock-shaped workload conflict resolution exists for.
//   - rbtree-evict: the same tree under the "evict" fault profile
//     (adversarial displacement of marked lines), the injectable version
//     of the capacity pathology the sticky axis was built to absorb.
//
// Each (design, workload) pair runs under the paper policy and the
// adaptive policy, with tunings routed through policy.TuningForDesign so
// retry intelligence reacts to the design (e.g. committer-wins turning
// COH aborts into already-stalled self-aborts that need no software
// backoff). The design point rides in sim.Config.HTM, so every cell's
// cache key (Config.Digest) distinguishes designs automatically.
type htmWorkload struct {
	name      string
	keyRange  int
	pctLookup int
	memWords  int
	build     func(m *sim.Machine, keyRange int) kvStructure
	// faults names a sim.FaultProfile injected into every cell of this
	// workload ("" means none). The plan rides in sim.Config.Faults, so
	// the cache key (Config.Digest) distinguishes faulted cells the same
	// way it distinguishes designs.
	faults string
}

func htmDesignWorkloads() []htmWorkload {
	return []htmWorkload{
		{name: "rbtree", keyRange: policyKeyRange, pctLookup: policyPctLookup,
			memWords: policyMemWords, build: rbtreeKV()},
		{name: "hash", keyRange: 256, pctLookup: 0,
			memWords: 1 << 23, build: hashtableKV(1 << 17)},
		// The rbtree under the adversarial marked-line-eviction profile:
		// the workload the sticky axis exists for — the default design
		// dooms every displacement with LD, a sticky design absorbs them
		// up to its bound (the capacity half of the E23 tail pathology,
		// now injectable on demand).
		{name: "rbtree-evict", keyRange: policyKeyRange, pctLookup: policyPctLookup,
			memWords: policyMemWords, build: rbtreeKV(), faults: "evict"},
	}
}

// htmDesignPolicies lists the retry policies the sweep crosses each
// design with: the paper's Section 6.1 heuristics and the adaptive
// learner (the naive baseline adds little here — the policy ablation
// already covers it).
func htmDesignPolicies() []string { return []string{"paper", "adaptive"} }

// htmDesignCfg is machineCfg with the HTM design point and the workload's
// fault profile installed; both are part of the config, so the runner
// cache digests key them.
func htmDesignCfg(threads, memWords int, seed uint64, design, faults string) sim.Config {
	cfg := machineCfg(threads, memWords, seed)
	cfg.HTM = sim.DesignPoint(design)
	if faults != "" {
		cfg.Faults = sim.FaultProfile(faults)
	}
	return cfg
}

// runHTMDesignCell measures one (design, workload, policy, threads) cell:
// PhTM over the SkySTM back end, with the machine implementing the named
// design point and the policy tuned for it.
func runHTMDesignCell(o Options, design string, wl htmWorkload, polName string, threads int) (Point, error) {
	cfg := htmDesignCfg(threads, wl.memWords, o.Seed, design, wl.faults)
	m := sim.New(cfg)
	defer m.Recycle()
	st := wl.build(m, wl.keyRange)
	pcfg := phtm.DefaultConfig()
	sys := phtm.New(m, sky.New(m), pcfg)
	sys.SetPolicy(policy.MustNew(polName, policy.TuningForDesign(pcfg.Tuning(), cfg.HTM)))
	spec := workload.MustCompile(workload.KVSpec(workload.Uniform(wl.keyRange), wl.pctLookup))
	lat := o.latRecorder()
	tr := o.startTrace(m)
	rec := o.startWindows(m)
	m.Run(func(s *sim.Strand) {
		ses := st.NewSession(sys, s)
		d := spec.Driver(s, lat)
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
	label := fmt.Sprintf("htmdesign/%s-%s-%s@%dT", design, wl.name, polName, threads)
	o.endTrace(tr, label)
	o.endWindows(rec, label)
	res := workload.NewResult(uint64(threads*o.OpsPerThread), m.ElapsedSeconds(), sys.Stats(), lat)
	return point(res, threads), nil
}

// HTMDesignFigure produces the design-space sweep: every named HTM design
// point × {rbtree, hash} × {paper, adaptive}, each across the thread
// axis. One curve per (design, workload, policy) triple, named
// "design/workload/policy"; the "rock/..." curves are the all-default
// baseline every other design is read against.
//
// What the axes predict (see docs/HTM-DESIGN.md for the worked reading):
//
//   - committer/timestamp vs rock on hash: conflict resolution that
//     stalls requesters serializes the write-only contention instead of
//     livelocking it, trading throughput at low threads for stability at
//     high ones.
//   - eagervm: cheaper commits (no drain) on the store-heavy hash cells,
//     bought with pricier aborts everywhere the rbtree conflicts.
//   - sticky: absorbs the rbtree's same-set read-set displacements (the
//     LD aborts behind deep-tree walks), directly attacking the capacity
//     half of the E23 tail pathology.
func HTMDesignFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	fig := &Figure{
		Title:  "HTM design space: design point x workload x policy (PhTM over SkySTM)",
		YLabel: "throughput (ops/usec), simulated",
	}
	var names []string
	var cells []pointCell
	for _, design := range sim.DesignPointNames() {
		for _, wl := range htmDesignWorkloads() {
			for _, pol := range htmDesignPolicies() {
				design, wl, pol := design, wl, pol
				names = append(names, design+"/"+wl.name+"/"+pol)
				for _, th := range o.Threads {
					th := th
					cells = append(cells, pointCell{
						Spec: o.spec("htmdesign", design+"/"+wl.name+"/"+pol, th,
							htmDesignCfg(th, wl.memWords, o.Seed, design, wl.faults),
							map[string]string{
								"design":   design,
								"workload": wl.name,
								"keyrange": itoa(wl.keyRange),
								"lookup":   itoa(wl.pctLookup),
								"policy":   pol,
								"faults":   wl.faults,
							}),
						Compute: func() (Point, error) { return runHTMDesignCell(o, design, wl, pol, th) },
					})
				}
			}
		}
	}
	curves, err := curveCells(o, names, o.Threads, cells)
	if err != nil {
		return nil, err
	}
	fig.Curves = curves
	// One note per design point: its rbtree/paper cell at the highest
	// thread count, read against the rock baseline.
	for _, curve := range curves {
		for _, design := range sim.DesignPointNames() {
			if curve.Name == design+"/rbtree/paper" {
				if last := curve.Points[len(curve.Points)-1]; last.Extra != "" {
					fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%d threads: %s", curve.Name, last.Threads, last.Extra))
				}
			}
		}
	}
	return fig, nil
}
