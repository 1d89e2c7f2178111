package main

import (
	"bytes"
	"time"

	"rocktm/internal/bench"
	"rocktm/internal/runner"
)

// figurePass is part (a) of the traced pass: the real bench figure
// function called in-process through a serial runner.Pool, with per-cell
// host times taken from the pool's per-job completion hook.
type figurePass struct {
	cellSeconds   []float64 // one per cell, in completion order
	callSeconds   float64   // the whole figure call
	renderSeconds float64   // Figure.Render + Figure.JSON
	stdout        []byte    // what the child prints for the same figure
}

func runFigurePass(w *workloadDef, seed uint64, ops int) (figurePass, error) {
	var p figurePass
	var last time.Time
	// One worker, so completions are sequential and each interval between
	// them is one cell.
	pool := &runner.Pool{Workers: 1, OnProgress: func(runner.Progress) {
		now := time.Now()
		p.cellSeconds = append(p.cellSeconds, now.Sub(last).Seconds())
		last = now
	}}
	start := time.Now()
	last = start
	fig, err := w.figure(bench.Options{OpsPerThread: ops, Seed: seed, Runner: pool})
	p.callSeconds = time.Since(start).Seconds()
	if err != nil {
		return p, err
	}
	var out bytes.Buffer
	start = time.Now()
	fig.Render(&out)
	err = fig.JSON(&out)
	p.renderSeconds = time.Since(start).Seconds()
	p.stdout = out.Bytes()
	return p, err
}
