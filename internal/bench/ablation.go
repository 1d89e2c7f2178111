package bench

import (
	"fmt"

	"rocktm/internal/core"
	"rocktm/internal/jcl"
	"rocktm/internal/jvm"
	"rocktm/internal/phtm"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/tle"
	"rocktm/internal/workload"
)

// AblationRetryBudget is the Section 6 knob study: how the PhTM
// hardware-retry budget changes red-black-tree behaviour. The paper found
// that raising the budget lets retries warm the cache and commit
// transactions that a small budget sends to software — but that those
// extra retries also eat the latency advantage.
func AblationRetryBudget(o Options) (*Figure, error) {
	o = o.Defaults()
	budgets := []float64{1, 2, 4, 8, 16}
	fig := &Figure{
		Title:  "Ablation: PhTM hardware-retry budget on Red-Black Tree 2048 keys, 96/2/2",
		YLabel: "throughput (ops/usec), simulated",
	}
	cfg := kvConfig{
		keyRange:  2048,
		pctLookup: 96,
		memWords:  1 << 22,
		build:     rbtreeKV(),
	}
	var names []string
	var cells []pointCell
	for _, budget := range budgets {
		budget := budget
		name := fmt.Sprintf("budget=%g", budget)
		names = append(names, name)
		for _, th := range o.Threads {
			th := th
			sb := SysBuilder{
				Name: name,
				Build: func(m *sim.Machine) core.System {
					c := phtm.DefaultConfig()
					c.MaxFailures = budget
					return phtm.New(m, sky.New(m), c)
				},
			}
			spec := kvSpec(o, "ablate-retry", cfg, name, th)
			spec.Params["budget"] = fmt.Sprintf("%g", budget)
			cells = append(cells, pointCell{
				Spec:    spec,
				Compute: func() (Point, error) { return runKV(o, "ablate-retry", cfg, sb, th) },
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

// AblationUCTIWeight studies the Section 8.1 policy choice of counting a
// UCTI-flagged failure as only *half* a failure on the MSF benchmark's
// synchronization profile (here: the Java Hashtable under TLE, where UCTI
// is the dominant failure at high thread counts).
func AblationUCTIWeight(o Options) (*Figure, error) {
	o = o.Defaults()
	weights := []float64{0.5, 1.0, 2.0}
	const keyRange = 4096
	fig := &Figure{
		Title:  "Ablation: UCTI failure weight in the TLE policy (Java Hashtable, mix 2:6:2)",
		YLabel: "throughput (ops/usec), simulated",
	}
	wl := workload.MustCompile(javaMix{2, 6, 2}.spec(keyRange))
	var names []string
	var cells []pointCell
	for _, w := range weights {
		w := w
		name := fmt.Sprintf("ucti=%g", w)
		names = append(names, name)
		for _, th := range o.Threads {
			th := th
			cells = append(cells, pointCell{
				Spec: o.spec("ablate-ucti", name, th, machineCfg(th, 1<<22, o.Seed),
					map[string]string{"weight": fmt.Sprintf("%g", w), "keyrange": itoa(keyRange)}),
				Compute: func() (Point, error) {
					m := machineFor(th, 1<<22, o.Seed)
					defer m.Recycle()
					pol := tle.DefaultPolicy()
					pol.UCTIWeight = w
					vm := jvm.New(m, pol)
					ht := jcl.NewHashtable(m, vm, 1<<13, keyRange+2*th+64)
					ht.Prepopulate(m.Mem(), workload.PrepopHalf(keyRange), 1)
					lat := o.latRecorder()
					m.Run(func(s *sim.Strand) {
						d := wl.Driver(s, lat)
						d.Run(o.OpsPerThread, func(_, op int, key uint64) {
							switch op {
							case workload.OpPut:
								ht.Put(s, key, 1)
							case workload.OpGet:
								ht.Get(s, key)
							default:
								ht.Remove(s, key)
							}
						})
					})
					res := workload.NewResult(uint64(th*o.OpsPerThread), m.ElapsedSeconds(), vm.Stats(), lat)
					return point(res, th), nil
				},
			})
		}
	}
	curves, err := curveCells(o, names, o.Threads, cells)
	if err != nil {
		return nil, err
	}
	fig.Curves = curves
	return fig, nil
}

// AblationThrottle evaluates the Section 7.2 future-work idea implemented
// in tle.Throttle: adaptive concurrency throttling under a write-heavy
// mix, against plain TLE and plain locking.
func AblationThrottle(o Options) (*Figure, error) {
	o = o.Defaults()
	const keyRange = 8 // a handful of hot keys: elision-hostile
	mix := javaMix{5, 0, 5}
	fig := &Figure{
		Title:  "Extension: adaptive concurrency throttling (TLE, Hashtable 5:0:5, keyrange 8)",
		YLabel: "throughput (ops/usec), simulated",
	}
	wl := workload.MustCompile(mix.spec(keyRange))
	var names []string
	var cells []pointCell
	for _, throttled := range []bool{false, true} {
		throttled := throttled
		name := "tle"
		if throttled {
			name = "tle+throttle"
		}
		names = append(names, name)
		for _, th := range o.Threads {
			th := th
			cells = append(cells, pointCell{
				Spec: o.spec("ablate-throttle", name, th, machineCfg(th, 1<<22, o.Seed),
					map[string]string{"mix": mix.String(), "keyrange": itoa(keyRange)}),
				Compute: func() (Point, error) {
					m := machineFor(th, 1<<22, o.Seed)
					defer m.Recycle()
					vm := jvm.New(m, tle.DefaultPolicy())
					if throttled {
						vm.SetThrottle(tle.NewThrottle(m))
					}
					ht := jcl.NewHashtable(m, vm, 1<<13, keyRange+2*th+64)
					ht.Prepopulate(m.Mem(), workload.PrepopHalf(keyRange), 1)
					lat := o.latRecorder()
					m.Run(func(s *sim.Strand) {
						d := wl.Driver(s, lat)
						d.Run(o.OpsPerThread, func(_, op int, key uint64) {
							switch op {
							case workload.OpPut:
								ht.Put(s, key, 1)
							case workload.OpGet:
								ht.Get(s, key)
							default:
								ht.Remove(s, key)
							}
						})
					})
					res := workload.NewResult(uint64(th*o.OpsPerThread), m.ElapsedSeconds(), vm.Stats(), lat)
					return point(res, th), nil
				},
			})
		}
	}
	curves, err := curveCells(o, names, o.Threads, cells)
	if err != nil {
		return nil, err
	}
	fig.Curves = curves
	return fig, nil
}
