// Package cli centralizes the experiment-runtime flag surface shared
// by the fedgpo CLIs (report, sweep, sim, train): worker counts,
// run-cache location and byte budget, execution-backend selection and
// remote worker-pool endpoints. Each CLI registers the block once and
// builds its exp.Runtime from the parsed values, so a new runtime knob
// lands in every tool by construction.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// BackendPool and BackendProcs are the -backend flag values.
const (
	BackendPool  = "pool"
	BackendProcs = "procs"
)

// RuntimeFlags holds the shared runtime flag block after parsing.
type RuntimeFlags struct {
	// Parallel is the in-process simulation worker count (pool
	// backend; 0 = all cores).
	Parallel int
	// CacheDir persists the content-addressed run cache.
	CacheDir string
	// CacheMaxBytes, when positive, prunes the cache directory at
	// startup — oldest entries first — until it fits the budget.
	CacheMaxBytes int64
	// Backend selects the execution backend (pool or procs).
	Backend string
	// Procs is the worker subprocess count for -backend=procs.
	Procs int
	// Workers lists remote TCP worker pools (comma-separated
	// host:port) for the shard coordinator; non-empty selects the
	// procs backend even when -backend is left at its default.
	Workers string
	// WorkerBin overrides the fedgpo-worker binary location.
	WorkerBin string
	// Route selects the procs-backend dispatch policy: "affinity"
	// (capacity-weighted pretrain-key routing with work-stealing
	// fallback, the default) or "pull" (pure pull-order work queue).
	// Results are byte-identical either way.
	Route string
	// ListScenarios requests the scenario-preset listing and exit.
	ListScenarios bool
	// MetricsOut, when set, writes the runtime's telemetry snapshot
	// (phase timings, counters, per-endpoint latency) as JSON on exit.
	MetricsOut string
	// TraceLevel selects RL decision tracing ("none" or "decisions").
	TraceLevel string
}

// Register installs the shared runtime flags on fs and returns the
// struct they parse into; read it after fs.Parse.
func Register(fs *flag.FlagSet) *RuntimeFlags {
	f := &RuntimeFlags{}
	fs.IntVar(&f.Parallel, "parallel", 0, "simulation worker count (0 = all cores)")
	fs.StringVar(&f.CacheDir, "cachedir", "", "persist the run cache under this directory")
	fs.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", 0,
		"evict least-recently-used cache entries at startup until the cache dir fits this byte budget (0 = keep everything)")
	fs.StringVar(&f.Backend, "backend", BackendPool,
		"execution backend: pool (in-process workers) or procs (worker subprocesses sharing -cachedir)")
	fs.IntVar(&f.Procs, "procs", 0, "worker subprocess count for -backend=procs (0 = -parallel if set, else all cores; with -workers, 0 = no local subprocesses)")
	fs.StringVar(&f.Workers, "workers", "",
		"comma-separated host:port TCP worker pools (fedgpo-worker -listen) to dispatch cells to; implies -backend=procs, mixable with local -procs")
	fs.StringVar(&f.WorkerBin, "worker-bin", "",
		"fedgpo-worker binary for -backend=procs (default: next to this binary, then $PATH)")
	fs.StringVar(&f.Route, "route", "affinity",
		"procs-backend dispatch policy: affinity (group cells by pretrain key onto capacity-weighted endpoints, steal to drain stragglers) or pull (pure pull-order queue); results are byte-identical either way")
	fs.BoolVar(&f.ListScenarios, "list-scenarios", false,
		"print the scenario presets and their resolved spec JSON, then exit")
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write the run's telemetry snapshot (phase timings, cache/sim counters, per-endpoint dispatch latency) as JSON to this file")
	fs.StringVar(&f.TraceLevel, "trace-level", "",
		"RL decision tracing: 'decisions' records each FedGPO cell's per-round state, masked action set, chosen action, reward and Q-delta as spec-addressed cache artifacts (tracing a cached cell costs one re-run; re-tracing costs zero); results stay byte-identical")
	return f
}

// HandleListScenarios prints the scenario-preset listing to w and
// reports true when -list-scenarios was requested; callers return
// immediately on true. Each preset is shown with its resolved
// ScenarioSpec JSON for the CNN-MNIST workload — other workloads
// substitute the workload block, everything else is workload-
// independent (the auto deadline resolves per workload at run time).
func (f *RuntimeFlags) HandleListScenarios(w io.Writer) bool {
	if !f.ListScenarios {
		return false
	}
	fmt.Fprintln(w, "scenario presets (spec JSON resolved for CNN-MNIST):")
	for _, p := range exp.Presets() {
		fmt.Fprintf(w, "\n%s — %s\n", p.Name, p.Description)
		fmt.Fprintln(w, string(exp.EncodeScenario(p.Build(workload.CNNMNIST()))))
	}
	return true
}

// Runtime builds the experiment runtime the parsed flags describe:
// cache (pruned to the byte budget), execution backend, and decision
// tracing.
func (f *RuntimeFlags) Runtime() (*exp.Runtime, error) {
	switch f.Route {
	case "", "affinity", "pull":
	default:
		return nil, fmt.Errorf("cli: unknown -route %q (valid: affinity, pull)", f.Route)
	}
	cache, err := runtime.NewCache(f.CacheDir)
	if err != nil {
		return nil, err
	}
	if _, err := cache.Prune(f.CacheMaxBytes); err != nil {
		return nil, err
	}
	remotes := f.remotes()
	var backend runtime.Backend
	switch {
	case (f.Backend == "" || f.Backend == BackendPool) && len(remotes) == 0:
		backend = runtime.NewPoolBackend(f.Parallel)
	case f.Backend == "" || f.Backend == BackendPool || f.Backend == BackendProcs:
		// -workers selects the shard coordinator even under the default
		// -backend: dispatching to remote pools is meaningless on the
		// in-process backend, and silently ignoring the flag would be
		// worse than upgrading it.
		procs := f.Procs
		if procs <= 0 {
			// A requested parallelism cap applies to whichever backend
			// runs the batch: without an explicit -procs, -parallel
			// bounds the subprocess count too (never silently ignored).
			// With remote pools configured, no cap means no local
			// subprocesses — the remotes carry the batch.
			procs = f.Parallel
			if procs <= 0 && len(remotes) > 0 {
				procs = 0
			}
		}
		var bin string
		if len(remotes) == 0 || procs > 0 {
			// Local sessions spawn subprocesses; remote-only fleets
			// need no worker binary on this machine.
			var err error
			if bin, err = f.workerBin(); err != nil {
				return nil, err
			}
		}
		backend = runtime.NewProcBackend(runtime.ProcConfig{
			WorkerBin: bin,
			Procs:     procs,
			Workers:   remotes,
			CacheDir:  f.CacheDir,
			Route:     f.Route,
		})
	default:
		return nil, fmt.Errorf("cli: unknown backend %q (valid: %s, %s)", f.Backend, BackendPool, BackendProcs)
	}
	rt := exp.NewRuntimeWithBackend(backend, cache)
	switch f.TraceLevel {
	case "", "none":
		// tracing off
	case telemetry.TraceDecisions:
		rt.SetTraceLevel(telemetry.TraceDecisions)
	default:
		return nil, fmt.Errorf("cli: unknown -trace-level %q (valid: none, %s)", f.TraceLevel, telemetry.TraceDecisions)
	}
	return rt, nil
}

// BackendName names the execution backend rt was built on, for the
// CLIs' runtime lines: -workers selects the procs backend even when
// -backend is left at pool, so the flag value alone can be wrong.
func BackendName(rt *exp.Runtime) string {
	if _, ok := rt.Backend().(*runtime.Coordinator); ok {
		return BackendProcs
	}
	return BackendPool
}

// WriteMetrics writes the runtime's telemetry snapshot to the
// -metrics-out file (no-op when the flag is unset). Call it after the
// run's work completes so the snapshot covers everything.
func (f *RuntimeFlags) WriteMetrics(rt *exp.Runtime) error {
	if f.MetricsOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(rt.Metrics(), "", "  ")
	if err != nil {
		return fmt.Errorf("cli: encoding metrics: %w", err)
	}
	if err := os.WriteFile(f.MetricsOut, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("cli: writing -metrics-out: %w", err)
	}
	return nil
}

// remotes parses -workers into its host:port list (empty entries from
// stray commas are dropped).
func (f *RuntimeFlags) remotes() []string {
	var out []string
	for _, a := range strings.Split(f.Workers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// workerBin resolves the fedgpo-worker binary: the explicit flag, a
// sibling of the running executable, then $PATH.
func (f *RuntimeFlags) workerBin() (string, error) {
	if f.WorkerBin != "" {
		if _, err := os.Stat(f.WorkerBin); err != nil {
			return "", fmt.Errorf("cli: -worker-bin: %w", err)
		}
		return f.WorkerBin, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "fedgpo-worker")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("fedgpo-worker"); err == nil {
		return p, nil
	}
	return "", errors.New("cli: fedgpo-worker binary not found (build cmd/fedgpo-worker next to this binary, put it on $PATH, or pass -worker-bin)")
}
