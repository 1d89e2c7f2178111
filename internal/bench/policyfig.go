package bench

import (
	"fmt"

	"rocktm/internal/phtm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/workload"
)

// The policy-ablation workload: the Figure 2(b) red-black tree (2048 keys,
// 96% reads), the paper's most retry-sensitive structure — transactions
// are deep enough to abort for capacity and TLB reasons, and the 4%
// update mix generates genuine coherence conflicts for the backoff and
// throttle stances to act on.
const (
	policyKeyRange  = 2048
	policyPctLookup = 96
	policyMemWords  = 1 << 22
)

// policyAblationPolicies lists the built-in policies in ablation order
// (the naive baseline first, then the paper heuristics, then the
// adaptive learner).
func policyAblationPolicies() []string { return []string{"naive", "paper", "adaptive"} }

// policyMachineCfg is machineCfg with a fault plan installed; the plan is
// part of the config, so the runner's cache digests distinguish profiles.
func policyMachineCfg(threads, memWords int, seed uint64, faults sim.FaultPlan) sim.Config {
	cfg := machineCfg(threads, memWords, seed)
	cfg.Faults = faults
	return cfg
}

// policyTree builds every policy cell's tree from one shared key slice.
var policyTree = rbtreeKV()

// runPolicyCell measures one (policy, fault profile, threads) cell: PhTM
// over the SkySTM back end on the red-black-tree workload, with the named
// retry policy driving the hardware attempts and the named fault profile
// injecting adversarial aborts.
func runPolicyCell(o Options, polName, profile string, threads int) (Point, error) {
	cfg := policyMachineCfg(threads, policyMemWords, o.Seed, sim.FaultProfile(profile))
	m := sim.New(cfg)
	defer m.Recycle()
	st := policyTree(m, policyKeyRange)
	pcfg := phtm.DefaultConfig()
	sys := phtm.New(m, sky.New(m), pcfg)
	sys.SetPolicy(policy.MustNew(polName, pcfg.Tuning()))
	wl := workload.MustCompile(workload.KVSpec(workload.Uniform(policyKeyRange), policyPctLookup))
	lat := o.latRecorder()
	tr := o.startTrace(m)
	rec := o.startWindows(m)
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
	o.endTrace(tr, fmt.Sprintf("policy/%s-%s@%dT", polName, profile, threads))
	o.endWindows(rec, fmt.Sprintf("policy/%s-%s@%dT", polName, profile, threads))
	res := workload.NewResult(uint64(threads*o.OpsPerThread), m.ElapsedSeconds(), sys.Stats(), lat)
	return point(res, threads), nil
}

// PolicyFigure produces the policy × fault-profile ablation table: every
// built-in retry policy (naive, paper, adaptive) crossed with every named
// fault profile (none, interrupts, tlb, inval, evict, squeeze), each swept
// across the thread axis. One column per (policy, profile) pair.
//
// The interesting comparisons, and what Section 6.1 predicts:
//
//   - naive vs paper under "none": the paper heuristics' backoff defeats
//     requester-wins livelock that plain counted retries suffer at high
//     thread counts (Section 4).
//   - under "tlb" and "squeeze": capacity-flavoured aborts (ST, SIZ)
//     either stop recurring after warming retries (tlb: the failing
//     access re-establishes the mapping) or never stop (squeeze: the
//     queue really is too small); the adaptive policy should detect the
//     difference and cut the doomed retries the static policies burn.
//   - under "inval": injected COH dominance escalates the adaptive
//     policy's stance from Backoff to Throttle.
func PolicyFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	fig := &Figure{
		Title:  "Policy ablation: retry policy x fault profile (PhTM, RB-tree 2048 keys 96% reads)",
		YLabel: "throughput (ops/usec), simulated",
	}
	profiles := sim.FaultProfileNames()
	var names []string
	var cells []pointCell
	for _, pol := range policyAblationPolicies() {
		for _, prof := range profiles {
			pol, prof := pol, prof
			names = append(names, pol+"/"+prof)
			for _, th := range o.Threads {
				th := th
				cells = append(cells, pointCell{
					Spec: o.spec("policy", pol+"/"+prof, th,
						policyMachineCfg(th, policyMemWords, o.Seed, sim.FaultProfile(prof)),
						map[string]string{
							"keyrange": itoa(policyKeyRange),
							"lookup":   itoa(policyPctLookup),
							"policy":   pol,
							"profile":  prof,
						}),
					Compute: func() (Point, error) { return runPolicyCell(o, pol, prof, th) },
				})
			}
		}
	}
	curves, err := curveCells(o, names, o.Threads, cells)
	if err != nil {
		return nil, err
	}
	fig.Curves = curves
	// One annotation per policy at the highest thread count of the
	// no-fault baseline, so the table stays readable.
	for _, curve := range curves {
		for _, pol := range policyAblationPolicies() {
			if curve.Name == pol+"/none" {
				if last := curve.Points[len(curve.Points)-1]; last.Extra != "" {
					fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%d threads: %s", curve.Name, last.Threads, last.Extra))
				}
			}
		}
	}
	return fig, nil
}
