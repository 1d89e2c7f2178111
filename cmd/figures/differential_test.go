package main

import (
	"bytes"
	"testing"

	"rocktm/internal/bench"
)

// renderCatalogue renders every experiment in the -exp all catalogue (plus
// the attrib report) under one scheduler, at smoke scale, returning the
// rendered bytes (table + CSV) per experiment name.
func renderCatalogue(t *testing.T, sched string) map[string][]byte {
	t.Helper()
	o := bench.Options{Threads: []int{1, 2}, OpsPerThread: 120, Seed: 1, Sched: sched}
	mo := bench.MSFOptions{Width: 12, Height: 12, Threads: []int{1, 2}, Seed: 1}
	out := map[string][]byte{}
	for _, e := range buildExperiments(o, mo) {
		fig, err := e.run()
		if err != nil {
			t.Fatalf("%s [%s]: %v", e.name, sched, err)
		}
		var buf bytes.Buffer
		fig.Render(&buf)
		fig.CSV(&buf)
		out[e.name] = buf.Bytes()
	}
	rep, err := bench.AttributionReport(o)
	if err != nil {
		t.Fatalf("attrib [%s]: %v", sched, err)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	rep.CSV(&buf)
	out["attrib"] = buf.Bytes()
	return out
}

// Differential-driver golden test: the continuation driver and the general
// coroutine driver must render byte-identical output for every experiment
// in the -exp all catalogue. This is the figure-level counterpart of
// internal/sim's TestGoldenStepDriverIdentity — it catches any workload or
// TM system whose stepped execution diverges from its coroutine execution
// by even one simulated cycle, because cycle counts feed every table.
func TestDifferentialDriverCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("differential catalogue render is a long test")
	}
	step := renderCatalogue(t, bench.SchedStep)
	coro := renderCatalogue(t, bench.SchedCoroutine)
	if len(step) != len(coro) {
		t.Fatalf("catalogue size differs: step %d, coroutine %d", len(step), len(coro))
	}
	for name, sb := range step {
		cb, ok := coro[name]
		if !ok {
			t.Errorf("%s: missing from coroutine render", name)
			continue
		}
		if !bytes.Equal(sb, cb) {
			t.Errorf("%s: drivers disagree\n--- step ---\n%s\n--- coroutine ---\n%s", name, sb, cb)
		}
	}
}
