package main

import (
	"encoding/json"
	"os"
	"time"
)

// A span is one timed call into a layer's public function, recorded from
// the benchmark's own code around the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Cell   int    `json:"cell"`   // index into the workload's cells
	Name   string `json:"name"`   // the call, e.g. "sim.New" or "phtm.New"
	Layer  string `json:"layer"`  // the layer metric it feeds, e.g. "sim.new"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// only calls through, so the same replay code measures the tracing cost.
type tracer struct {
	on    bool
	t0    time.Time
	cell  int
	stack []int
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// span runs f inside a span named name that belongs to layer.
func (t *tracer) span(name, layer string, f func()) {
	if !t.on {
		f()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: t.cell, Name: name, Layer: layer,
		Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfSeconds sums, per layer, each span's duration minus the part of it
// its direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Layer] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// write stores the spans with the run's provenance as one JSON document.
func (t *tracer) write(path string, prov provenance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
