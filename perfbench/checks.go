package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
)

// The benchmark's operations are figure cells. A cell fails when its
// child exits non-zero, when its point is missing, non-finite or not
// positive in the -json figure, when the child's stdout differs from the
// first run of the same workload and seed, when the replay does not
// reproduce it bit-for-bit, or when the replayed red-black tree fails its
// invariants.

// point is one figure point as a child printed it.
type point struct {
	opsPerUsec float64
	p999       int64 // 0 when the figure carries no latency digest
}

type figureDoc struct {
	Curves []struct {
		Name   string `json:"name"`
		Points []struct {
			Threads    int     `json:"threads"`
			OpsPerUsec float64 `json:"ops_per_usec"`
			Latency    *struct {
				P999 int64 `json:"p999"`
			} `json:"latency"`
		} `json:"points"`
	} `json:"curves"`
}

// figureJSON returns the -json document of a child's stdout, which
// follows the rendered table: everything from the first line that opens
// a JSON object.
func figureJSON(stdout []byte) []byte {
	if bytes.HasPrefix(stdout, []byte("{")) {
		return stdout
	}
	if i := bytes.Index(stdout, []byte("\n{")); i >= 0 {
		return stdout[i+1:]
	}
	return nil
}

func parseFigure(stdout []byte) (map[cellKey]point, error) {
	doc := figureJSON(stdout)
	if doc == nil {
		return nil, errors.New("no -json figure in the output")
	}
	var f figureDoc
	if err := json.Unmarshal(doc, &f); err != nil {
		return nil, err
	}
	pts := map[cellKey]point{}
	for _, c := range f.Curves {
		for _, p := range c.Points {
			pt := point{opsPerUsec: p.OpsPerUsec}
			if p.Latency != nil {
				pt.p999 = p.Latency.P999
			}
			pts[cellKey{c.Name, p.Threads}] = pt
		}
	}
	return pts, nil
}

// childFailures checks one child run against the cells it must print and
// against ref, the stdout of the first run of the same workload and seed
// (nil for that first run). A non-zero exit, an unreadable figure or a
// stdout that differs from ref fails every cell; otherwise each missing,
// non-finite or non-positive point fails its cell. It returns the points
// it read (nil when every cell failed) and the number of failed cells.
func childFailures(keys []cellKey, exitErr error, stdout, ref []byte) (map[cellKey]point, int) {
	if exitErr != nil || (ref != nil && !bytes.Equal(stdout, ref)) {
		return nil, len(keys)
	}
	pts, err := parseFigure(stdout)
	if err != nil {
		return nil, len(keys)
	}
	failed := 0
	for _, k := range keys {
		p, ok := pts[k]
		if !ok || math.IsNaN(p.opsPerUsec) || math.IsInf(p.opsPerUsec, 0) || p.opsPerUsec <= 0 {
			failed++
		}
	}
	return pts, failed
}

// replayFailures counts the cells whose replay failed, or whose replayed
// throughput (and p99.9, where the child printed one) is not bit-for-bit
// the child's point. A cell the child did not print cannot be checked, so
// it fails too.
func replayFailures(keys []cellKey, child map[cellKey]point, replay []cellResult) int {
	failed := 0
	for i, k := range keys {
		p, ok := child[k]
		r := replay[i]
		if !ok || r.err != nil || math.Float64bits(r.opsPerUsec) != math.Float64bits(p.opsPerUsec) ||
			(p.p999 != 0 && p.p999 != r.p999) {
			failed++
		}
	}
	return failed
}

func cellKeys(w *workloadDef) []cellKey {
	keys := make([]cellKey, len(w.cells))
	for i, c := range w.cells {
		keys[i] = c.key
	}
	return keys
}
