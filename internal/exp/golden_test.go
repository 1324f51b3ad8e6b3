package exp

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata/golden_*.txt digests from this build's tables (say why in the change description)")

// The reproduced numbers are the product: every registry experiment
// must render exactly the Markdown it rendered when its golden file was
// last regenerated, so a refactor that moves a single digit of any
// table fails here instead of drifting silently across changes. sec54
// runs but is not pinned: its overhead rows are wall-clock
// measurements. Regenerate deliberately with
//
//	go test ./internal/exp -run 'TestGolden(Tiny|Quick)Tables' -update-golden
func TestGoldenTinyTables(t *testing.T) {
	checkGoldenTables(t, Tiny(), filepath.Join("testdata", "golden_tiny.txt"))
}

// TestGoldenQuickTables pins the same digests at the scale of
// `fedgpo-report -quick` (100 devices, 300 rounds).
func TestGoldenQuickTables(t *testing.T) {
	checkGoldenTables(t, Quick(), filepath.Join("testdata", "golden_quick.txt"))
}

// checkGoldenTables runs every registry experiment except sec54 at
// opts and compares one short SHA-256 digest per table with path (or
// rewrites path under -update-golden).
func checkGoldenTables(t *testing.T, opts Options, path string) {
	t.Helper()
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	opts = opts.WithRuntime(rt)
	var got strings.Builder
	for _, e := range Registry() {
		md := e.Run(opts).Markdown()
		if e.ID == "sec54" {
			continue
		}
		sum := sha256.Sum256([]byte(md))
		fmt.Fprintf(&got, "%s %x\n", e.ID, sum[:8])
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digests (regenerate with -update-golden): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("table digests drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got.String())
	}
}
