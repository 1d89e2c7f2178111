package rocktm

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelsDoNotKnowTheirTMSystem pins the layering rule of
// docs/ARCHITECTURE.md: a data-structure kernel is written once against
// core.Ctx and runs under every TM system without knowing which one it got.
// No kernel package may import a TM system, directly or through another
// rocktm package. counter, dcas and jcl are left out on purpose: they
// drive raw HTM or TLE themselves (paper §4 and §7).
func TestKernelsDoNotKnowTheirTMSystem(t *testing.T) {
	kernels := []string{"rbtree", "hashtable", "vector", "msf"}
	tmSystems := map[string]bool{}
	for _, p := range []string{"rock", "stm", "stm/sky", "stm/tl2", "hytm", "phtm", "tle", "locktm", "policy"} {
		tmSystems["rocktm/internal/"+p] = true
	}
	for _, k := range kernels {
		// Breadth-first over the kernel's non-test rocktm imports.
		seen := map[string]bool{"rocktm/internal/" + k: true}
		queue := []string{"rocktm/internal/" + k}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			pkg, err := build.ImportDir(filepath.FromSlash(strings.TrimPrefix(path, "rocktm/")), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if !strings.HasPrefix(imp, "rocktm/") {
					continue
				}
				if seen[imp] {
					continue
				}
				seen[imp] = true
				if tmSystems[imp] {
					t.Errorf("kernel package %s imports TM system %s (via %s)", k, imp, path)
					continue
				}
				queue = append(queue, imp)
			}
		}
	}
}
