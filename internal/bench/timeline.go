package bench

import (
	"fmt"
	"strconv"

	"rocktm/internal/obs/timeseries"
	"rocktm/internal/runner"
	"rocktm/internal/workload"
)

// The timeline experiment: the E23 tail sweep's most contended corner —
// zipfian 0.99 keys — re-run with windowed timeseries capture, so the
// transient pathologies E23 could only infer from end-of-run percentiles
// (PhTM's phase-flip drain above all) become visible as concrete window
// ranges, get named by the pathology detectors, and are judged against
// declared SLOs with burn-rate verdicts. This is ROADMAP item 1's
// fleet-judging machinery exercised end to end.
//
// Unlike the -timeline opt-in flag (which forces serial execution and
// deposits series into a side sink), the timeline figure carries each
// run's series inside its cell payload, so it runs through the runner's
// pool and content-addressed cache like any other experiment —
// serial ≡ parallel ≡ warm-cache byte-identical, pinned by test.

// timelinePoint is the timeline experiment's cell payload: the standard
// figure point plus the run's window series. Both survive the runner's
// canonical-JSON round trip byte-identically.
type timelinePoint struct {
	Point  Point
	Series timeseries.Series
}

// timelineWidth resolves the window width the experiment records at.
func (o Options) timelineWidth() int64 {
	if o.TimelineWindow > 0 {
		return o.TimelineWindow
	}
	return timeseries.DefaultWidth
}

// timelineSLOs declares the experiment's per-structure objectives. The
// thresholds are set between the families E23 measured: TLE's rbtree
// p99.9 sits near 9k cycles and PhTM's drain windows reach past 64k, so
// a 16k bound separates them; the hash table's short operations hold a
// tighter 8k bound that pure STM's validation tail breaks.
func timelineSLOs(structure string) []timeseries.SLO {
	switch structure {
	case "ht":
		return []timeseries.SLO{{Name: "ht-tail", Percentile: "p99.9", MaxCycles: 8192, TargetFrac: 0.99, MinOps: 8}}
	case "rbtree":
		return []timeseries.SLO{{Name: "rbtree-tail", Percentile: "p99.9", MaxCycles: 16384, TargetFrac: 0.99, MinOps: 8}}
	}
	return nil
}

// timelineStructures is the structure axis: the same two E23 used.
func timelineStructures() []struct {
	name string
	cfg  kvConfig
} {
	return []struct {
		name string
		cfg  kvConfig
	}{
		{"ht", kvConfig{
			keyRange:  4096,
			pctLookup: 50,
			memWords:  1 << 23,
			build:     hashtableKV(1 << 12),
		}},
		{"rbtree", kvConfig{
			keyRange:  2048,
			pctLookup: 90,
			memWords:  1 << 22,
			build:     rbtreeKV(),
		}},
	}
}

// TimelineFigure is the `-exp timeline` experiment: structure × system at
// zipf 0.99 across the thread axis, each cell carrying its window series.
// The throughput table matches the tail experiment's zipf0.99 columns
// byte-for-byte (same cells, same seeds); the notes carry the detector
// findings and SLO verdicts at the top thread count.
func TimelineFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	o.Latency = true
	width := o.timelineWidth()
	fig := &Figure{
		Title:  "Timeline: windowed timeseries, zipf0.99, HashTable 4096 keys 50% lookups + RB-tree 2048 keys 90% lookups",
		YLabel: "throughput (ops/usec), simulated; window series in notes/exports",
	}
	structures := timelineStructures()
	systems := tailSystems()
	var names []string
	var cells []runner.Cell[timelinePoint]
	for _, st := range structures {
		for _, sb := range systems {
			cfg := st.cfg
			cfg.keys = workload.Zipfian(cfg.keyRange, 0.99)
			name := st.name + "/" + sb.Name
			names = append(names, name)
			for _, th := range o.Threads {
				cfg, sb, th, name := cfg, sb, th, name
				sp := kvSpec(o, "timeline", cfg, name, th)
				// The window width shapes the payload, so it must key the
				// cache: a series recorded at one width never aliases another.
				sp.Params["timeline"] = "1"
				sp.Params["window"] = strconv.FormatInt(width, 10)
				cells = append(cells, runner.Cell[timelinePoint]{
					Spec: sp,
					Compute: func() (timelinePoint, error) {
						p, series, err := runKVSeries(o, name, cfg, sb, th, true, width)
						return timelinePoint{Point: p, Series: series}, err
					},
				})
			}
		}
	}
	pts, err := runner.RunCells(o.pool(), cells)
	if err != nil {
		return nil, err
	}
	nt := len(o.Threads)
	top := o.Threads[nt-1]
	for ci, name := range names {
		curve := Curve{Name: name}
		for t := 0; t < nt; t++ {
			curve.Points = append(curve.Points, pts[ci*nt+t].Point)
		}
		fig.Curves = append(fig.Curves, curve)
	}
	// Judge the top-thread-count run of every curve: pathology findings
	// first, then the structure's SLO verdicts. Everything derives from the
	// cached payloads, so notes are byte-stable across serial, parallel and
	// warm-cache executions.
	for ci, name := range names {
		structure := structures[ci/len(systems)].name
		series := pts[ci*nt+nt-1].Series
		findings := timeseries.Detect(series)
		if len(findings) == 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%dT: no pathologies detected over %d windows",
				name, top, len(series.Windows)))
		}
		for _, f := range findings {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%dT: %s", name, top, f))
		}
		for _, res := range timeseries.EvaluateSLOs(series, timelineSLOs(structure)) {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%dT: SLO %s", name, top, res))
		}
	}
	// When a timeline sink is attached, deposit every cell's judged series
	// in submission order. Labels follow the trace sink's convention
	// (runKVSeries appends the system name to its label), so the figures
	// command can merge counter tracks into the matching trace process.
	if o.Timeline != nil {
		for ci, name := range names {
			structure := structures[ci/len(systems)].name
			system := systems[ci%len(systems)].Name
			for t := 0; t < nt; t++ {
				series := pts[ci*nt+t].Series
				o.Timeline.AddJudged(fmt.Sprintf("%s/%s@%dT", name, system, o.Threads[t]), series,
					timeseries.Detect(series), timeseries.EvaluateSLOs(series, timelineSLOs(structure)))
			}
		}
	}
	return fig, nil
}
