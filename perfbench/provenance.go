package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance stamps a result with what produced it. Results compare only
// against runs from the same host.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`      // "+dirty" when the tree has uncommitted changes
	TreeSHA256 string `json:"tree_sha256"` // of the Go sources, go.mod files and PGO profiles
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Host       string `json:"host"`
}

func stamp(root, workload string, seed uint64, trace bool) provenance {
	host, _ := os.Hostname() // informational; empty when unavailable
	return provenance{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Commit:     gitCommit(root),
		TreeSHA256: treeHash(root),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       host,
	}
}

// gitCommit names HEAD when root is the top of a git checkout, or says it
// is not; the tree hash identifies the code either way.
func gitCommit(root string) string {
	const unknown = "unknown (not a git checkout)"
	top, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel").Output()
	abs, absErr := filepath.Abs(root)
	if err != nil || absErr != nil || filepath.Clean(strings.TrimSpace(string(top))) != abs {
		return unknown
	}
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return unknown
	}
	commit := strings.TrimSpace(string(head))
	status, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	if err != nil || len(strings.TrimSpace(string(status))) > 0 {
		commit += "+dirty"
	}
	return commit
}

// treeHash digests every Go source, go.mod and PGO profile under root,
// skipping dot directories (VCS data, build outputs, caches).
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && !strings.HasSuffix(name, ".pgo") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
