// Command perfbench is the repository's benchmark of the Rock simulator.
//
// It builds the shipped cmd/figures binary from the tree, runs it cold
// as a child process, one child at a time, and reports the host and
// simulated end-to-end metrics. With -trace 1 it instead reports
// per-layer metrics from a traced pass that calls the layers' public
// functions in-process. README.md says why each workload and metric was
// chosen.
//
// Run it from the repository root through its wrapper:
//
//	bash perfbench/run.sh --workload rbtree-read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The figures binary, the spans
// of a traced pass and a provenance-stamped copy of every result go under
// -out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// setupRuns is how many -ops 1 children measure setup_s (their median).
const setupRuns = 7

// minTimedRuns is the fewest timed children a run makes, however short
// -seconds is.
const minTimedRuns = 3

// childBudget bounds the children of one run after the build, so a run
// ends well inside three minutes even if a child hangs.
const childBudget = 165 * time.Second

// result is the benchmark's report, printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts attempted and failed cells.
type tally struct{ attempted, failed int }

func (t *tally) add(cells, failed int) {
	t.attempted += cells
	t.failed += failed
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: rbtree-read, hash-write or fleet-open")
	seed := flag.Uint64("seed", 1, "seed passed to figures -seed (0 means 1, as in figures)")
	seconds := flag.Int("seconds", 20, "how long the timed child runs measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from the traced pass instead")
	root := flag.String("root", ".", "repository root to build cmd/figures from")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the binary, spans and results")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if *seed == 0 {
		*seed = 1
	}
	for _, p := range []string{"go.mod", filepath.Join("cmd", "figures", "main.go")} {
		if _, err := os.Stat(filepath.Join(*root, p)); err != nil {
			return fmt.Errorf("%s is not the repository root: %w", *root, err)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	// The in-process passes run under the GC setting figures uses.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	bin, err := buildFigures(context.Background(), *root, *out)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childBudget)
	defer cancel()
	prov := stamp(*root, w.name, *seed, *trace == 1)

	var t tally
	var values map[string]float64
	var samples map[string][]float64
	var defs []metricDef
	if *trace == 1 {
		defs = perLayerMetrics
		values, err = tracedRun(ctx, w, bin, *seed, &t, filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed)), prov)
	} else {
		defs = endToEndMetrics
		values, samples, err = timedRun(ctx, w, bin, *seed, time.Duration(*seconds)*time.Second, &t)
	}
	if err != nil {
		return err
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return err
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	stamped, err := json.Marshal(struct {
		Provenance provenance           `json:"provenance"`
		Result     result               `json:"result"`
		Samples    map[string][]float64 `json:"samples,omitempty"` // every child's value behind a median
	}{prov, res, samples})
	if err != nil {
		return err
	}
	dir := filepath.Join(*out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json", w.name, *seed, *trace, time.Now().UTC().Format("20060102T150405.000000000")))
	if err := os.WriteFile(file, append(stamped, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("perfbench: %s\n", stamped)
	fmt.Printf("%s\n", line)
	return nil
}

// timedRun measures the end-to-end metrics: set-up children, then timed
// children for the given duration, then an untraced replay that checks
// every cell and supplies the kv figures' simulated p99.9. It also
// returns the per-child samples behind each median.
func timedRun(ctx context.Context, w *workloadDef, bin string, seed uint64, d time.Duration, t *tally) (map[string]float64, map[string][]float64, error) {
	keys := cellKeys(w)

	var setupWalls []float64
	var setupRef []byte
	for i := 0; i < setupRuns; i++ {
		c := runChild(ctx, bin, figuresArgs(w, setupOps, seed))
		_, failed := childFailures(keys, c.err, c.stdout, setupRef)
		t.add(len(keys), failed)
		if c.err == nil {
			setupWalls = append(setupWalls, c.wall)
			if setupRef == nil {
				setupRef = c.stdout
			}
		}
	}

	var walls, cpus, rss []float64
	var ref []byte
	var refPts map[cellKey]point
	start := time.Now()
	for n := 0; (n < minTimedRuns || time.Since(start) < d) && ctx.Err() == nil; n++ {
		c := runChild(ctx, bin, figuresArgs(w, timedOps, seed))
		pts, failed := childFailures(keys, c.err, c.stdout, ref)
		t.add(len(keys), failed)
		if c.err != nil {
			continue
		}
		if ref == nil {
			ref, refPts = c.stdout, pts
		}
		walls = append(walls, c.wall)
		cpus = append(cpus, c.cpu)
		rss = append(rss, c.rssMB)
	}
	if len(walls) == 0 || len(setupWalls) == 0 || refPts == nil {
		return nil, nil, errors.New("no child run of figures succeeded")
	}

	replay := replayAll(w, seed, timedOps, false)
	t.add(len(keys), replayFailures(keys, refPts, replay.results))

	// A cell without a usable point or p99.9 is already counted failed;
	// the means cover the rest.
	var thr, p999 []float64
	for i, k := range keys {
		p, ok := refPts[k]
		if !ok || !(p.opsPerUsec > 0) || math.IsInf(p.opsPerUsec, 0) {
			continue
		}
		thr = append(thr, p.opsPerUsec)
		lat := p.p999
		if lat == 0 {
			lat = replay.results[i].p999
		}
		if lat > 0 {
			p999 = append(p999, float64(lat))
		}
	}
	if len(thr) == 0 || len(p999) == 0 {
		return nil, nil, errors.New("no cell has a usable point")
	}
	return map[string]float64{
		"wall_s":                median(walls),
		"cpu_s":                 median(cpus),
		"peak_rss_mb":           median(rss),
		"setup_s":               median(setupWalls),
		"sim_ops_per_us_gmean":  gmean(thr),
		"sim_p999_cycles_gmean": gmean(p999),
	}, map[string][]float64{"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss, "setup_s": setupWalls}, nil
}

// tracedRun measures the per-layer metrics: one child run as the
// reference, part (a) in-process through a serial runner.Pool, then the
// replay, twice untraced and twice traced. Its spans are written to
// spansPath.
func tracedRun(ctx context.Context, w *workloadDef, bin string, seed uint64, t *tally, spansPath string, prov provenance) (map[string]float64, error) {
	keys := cellKeys(w)
	c := runChild(ctx, bin, figuresArgs(w, timedOps, seed))
	refPts, failed := childFailures(keys, c.err, c.stdout, nil)
	t.add(len(keys), failed)

	a, err := runFigurePass(w, seed, timedOps)
	if err != nil {
		return nil, fmt.Errorf("in-process %s: %w", w.exp, err)
	}
	// The in-process figure must print exactly what the child printed.
	failed = 0
	if c.err != nil || !bytes.Equal(a.stdout, c.stdout) {
		failed = len(keys)
	}
	t.add(len(keys), failed)

	// Untraced, traced, traced, untraced: the order cancels warm-up and
	// drift out of the tracing overhead. The first traced pass supplies
	// the spans and the layer metrics.
	var passes [4]replayPass
	for i, spans := range []bool{false, true, true, false} {
		passes[i] = replayAll(w, seed, timedOps, spans)
		t.add(len(keys), replayFailures(keys, refPts, passes[i].results))
	}
	on := passes[1]
	if err := on.tr.write(spansPath, prov); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	overhead := (passes[1].seconds + passes[2].seconds - passes[0].seconds - passes[3].seconds) / 2
	return layerMetrics(a, on, overhead), nil
}
