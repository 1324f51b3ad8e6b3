package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
)

// startPool serves one in-process TCP worker pool on a loopback port
// for the CLI binaries to dial, drained when the test ends.
func startPool(t *testing.T) string {
	t.Helper()
	wrt, err := exp.NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- runtime.Serve(ctx, lis, runtime.ServeConfig{
			Capacity: 1,
			Run: func(key string, spec json.RawMessage) runtime.Result {
				sp, err := exp.DecodeJobSpec(spec)
				if err != nil {
					return runtime.Result{Key: key, Err: err.Error()}
				}
				return wrt.RunJob(wrt.Job(sp))
			},
			Install: wrt.InstallSnapshot,
		})
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker pool drain: %v", err)
		}
	})
	return lis.Addr().String()
}

// -v prints the telemetry summary, which has one line per endpoint:
// over a 2-endpoint TCP fleet, fedgpo-report and fedgpo-sweep each
// name every endpoint exactly once on stderr, and the report's runtime
// line counts the warm-up the fleet executed.
func TestVerbosePrintsEachEndpointOnce(t *testing.T) {
	bin := t.TempDir()
	out, err := exec.Command("go", "build", "-o", bin, "fedgpo/cmd/fedgpo-report", "fedgpo/cmd/fedgpo-sweep").CombinedOutput()
	if err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}
	a, b := startPool(t), startPool(t)
	workers := a + "," + b
	runs := map[string][]string{
		"fedgpo-report": {"-quick", "-only", "fig5", "-v", "-workers", workers},
		"fedgpo-sweep":  {"-matrix", "fleet=20;alpha=iid,0.5;rounds=60", "-v", "-workers", workers},
	}
	for name, args := range runs {
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, stderr.String())
		}
		for _, addr := range []string{a, b} {
			if n := strings.Count(stderr.String(), "tcp:"+addr+":"); n != 1 {
				t.Errorf("%s -v names endpoint tcp:%s %d times, want 1:\n%s", name, addr, n, stderr.String())
			}
		}
		if name == "fedgpo-report" && !strings.Contains(stderr.String(), ", 1 pretrain warm-ups executed\n") {
			t.Errorf("fedgpo-report runtime line misses the fleet's one warm-up:\n%s", stderr.String())
		}
	}
}
