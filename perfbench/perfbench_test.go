package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rocktm/internal/bench"
	"rocktm/internal/obs"
)

// testFigure renders a figure exactly as a figures child prints it.
func testFigure(t *testing.T, curves ...bench.Curve) []byte {
	t.Helper()
	fig := &bench.Figure{Title: "test", YLabel: "ops/usec", Curves: curves}
	var out bytes.Buffer
	fig.Render(&out)
	if err := fig.JSON(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func testCurves(perturb float64, drop bool) []bench.Curve {
	a := bench.Curve{Name: "a", Points: []bench.Point{{Threads: 1, OpsPerUsec: 1.5}, {Threads: 2, OpsPerUsec: 2.75 * perturb}}}
	b := bench.Curve{Name: "b", Points: []bench.Point{{Threads: 1, OpsPerUsec: 0.125, Lat: &obs.LatencySummary{P999: 4735}}}}
	if drop {
		a.Points = a.Points[:1]
	}
	return []bench.Curve{a, b}
}

var testKeys = []cellKey{{"a", 1}, {"a", 2}, {"b", 1}}

func TestChildChecksCountFailedCells(t *testing.T) {
	good := testFigure(t, testCurves(1, false)...)
	cases := []struct {
		name         string
		exitErr      error
		stdout, ref  []byte
		wantFailures int
	}{
		{"clean first run", nil, good, nil, 0},
		{"clean repeat", nil, good, good, 0},
		{"dropped point", nil, testFigure(t, testCurves(1, true)...), nil, 1},
		{"perturbed throughput", nil, testFigure(t, testCurves(1.0000001, false)...), good, len(testKeys)},
		{"non-positive point", nil, testFigure(t, testCurves(0, false)...), nil, 1},
		{"non-zero exit", errors.New("exit status 1"), good, nil, len(testKeys)},
		{"no json", nil, []byte("== test ==\n"), nil, len(testKeys)},
	}
	for _, c := range cases {
		if _, got := childFailures(testKeys, c.exitErr, c.stdout, c.ref); got != c.wantFailures {
			t.Errorf("%s: %d failed cells, want %d", c.name, got, c.wantFailures)
		}
	}
}

func TestReplayChecksCountFailedCells(t *testing.T) {
	pts, failed := childFailures(testKeys, nil, testFigure(t, testCurves(1, false)...), nil)
	if failed != 0 {
		t.Fatalf("clean figure: %d failed cells", failed)
	}
	exact := []cellResult{{opsPerUsec: 1.5}, {opsPerUsec: 2.75}, {opsPerUsec: 0.125, p999: 4735}}
	if got := replayFailures(testKeys, pts, exact); got != 0 {
		t.Fatalf("exact replay: %d failed cells", got)
	}
	mutate := map[string]func(r []cellResult){
		"throughput one ulp off": func(r []cellResult) { r[1].opsPerUsec = math.Nextafter(r[1].opsPerUsec, 3) },
		"p999 differs":           func(r []cellResult) { r[2].p999++ },
		"invariant failed":       func(r []cellResult) { r[0].err = errors.New("red-black tree invariant: red root") },
	}
	for name, m := range mutate {
		r := append([]cellResult(nil), exact...)
		m(r)
		if got := replayFailures(testKeys, pts, r); got != 1 {
			t.Errorf("%s: %d failed cells, want 1", name, got)
		}
	}
	if got := replayFailures(testKeys, nil, exact); got != len(testKeys) {
		t.Errorf("replay without a child figure: %d failed cells, want %d", got, len(testKeys))
	}
}

// The replay must reproduce the shipped figure bit-for-bit; checked here
// at a small -ops on every workload.
func TestReplayReproducesFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every cell of every workload")
	}
	const ops, seed = 20, 3
	for _, w := range workloads() {
		fig, err := w.figure(bench.Options{OpsPerThread: ops, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var out bytes.Buffer
		fig.Render(&out)
		if err := fig.JSON(&out); err != nil {
			t.Fatal(err)
		}
		keys := cellKeys(w)
		pts, failed := childFailures(keys, nil, out.Bytes(), nil)
		if failed != 0 {
			t.Fatalf("%s: the figure lacks %d of the workload's cells", w.name, failed)
		}
		pass := replayAll(w, seed, ops, true)
		if got := replayFailures(keys, pts, pass.results); got != 0 {
			t.Errorf("%s: %d of %d cells not reproduced", w.name, got, len(keys))
		}
		self := pass.tr.selfSeconds()
		for _, layer := range []string{"cell", "core.build", "sim.recycle"} {
			if self[layer] <= 0 {
				t.Errorf("%s: no self time in layer %s", w.name, layer)
			}
		}
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer(true)
	tr.span("outer", "a", func() {
		time.Sleep(2 * time.Millisecond)
		tr.span("inner", "b", func() { time.Sleep(5 * time.Millisecond) })
	})
	self := tr.selfSeconds()
	total := float64(tr.spans[0].End-tr.spans[0].Start) / 1e9
	if self["b"] < 0.005 || self["a"] >= total-0.005 || math.Abs(self["a"]+self["b"]-total) > 1e-9 {
		t.Errorf("self times %v do not split the outer span's %.6fs", self, total)
	}
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
}

// Every metric the harness prints is declared in BENCHMARK.json under the
// same name, unit and direction, and nothing else is.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if i < len(got) && got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness prints %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness workloads %v", names, want)
	}
}

// The benchmark must survive the deletion of any strand-driver mechanism
// the simulator may drop: it passes figures only the flags below and
// names none of those mechanisms.
func TestDriverIndependence(t *testing.T) {
	allowed := map[string]bool{"-exp": true, "-ops": true, "-seed": true, "-parallel": true, "-no-cache": true, "-json": true}
	for _, w := range workloads() {
		for _, ops := range []int{setupOps, timedOps} {
			for _, a := range figuresArgs(w, ops, 1) {
				if strings.HasPrefix(a, "-") && !allowed[a] {
					t.Errorf("%s passes figures %s", w.name, a)
				}
			}
		}
	}
	forbidden := []string{"RunStepped", "StepFn", "OpLog", "Sched", "ROCKTM_SCHED", "-sched", "ctxgen"}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range forbidden {
			if bytes.Contains(src, []byte(f)) {
				t.Errorf("%s references %s", e.Name(), f)
			}
		}
	}
}
