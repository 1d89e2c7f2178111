package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// buildFigures builds the shipped cmd/figures binary from the tree at
// root into dir. A plain `go build` of the main package applies its
// default.pgo, and the binary sets its own GC percentage, so the child is
// the program users run.
func buildFigures(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "figures")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/figures")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/figures: %w", err)
	}
	return bin, nil
}

// childRun is one cold `figures` invocation as the benchmark saw it.
type childRun struct {
	err    error   // non-nil when the child did not exit 0
	wall   float64 // host seconds from start to exit
	cpu    float64 // user+sys CPU seconds (rusage)
	rssMB  float64 // peak resident set (rusage maxrss)
	stdout []byte
}

// runChild runs bin with args, one child at a time, and waits for it.
func runChild(ctx context.Context, bin string, args []string) childRun {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	r := childRun{err: err, wall: time.Since(start).Seconds(), stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return r
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
