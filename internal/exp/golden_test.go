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
	"rewrite testdata/golden_tiny.txt from this build's tables (say why in the change description)")

// goldenPath pins the digest of every registry table at Tiny scale.
var goldenPath = filepath.Join("testdata", "golden_tiny.txt")

// The reproduced numbers are the product: every registry experiment
// run at Tiny scale must render exactly the Markdown it rendered when
// testdata/golden_tiny.txt was last regenerated, so a refactor that
// moves a single digit of any table fails here instead of drifting
// silently across changes. sec54 runs but is not pinned: its overhead
// rows are wall-clock measurements. Regenerate deliberately with
//
//	go test ./internal/exp -run TestGoldenTinyTables -update-golden
func TestGoldenTinyTables(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := Tiny().WithRuntime(rt)
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
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden digests (regenerate with -update-golden): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("table digests drifted from %s:\n--- want ---\n%s--- got ---\n%s", goldenPath, want, got.String())
	}
}
