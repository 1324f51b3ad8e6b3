package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"fedgpo/internal/core"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
)

// Runtime bundles the experiment runtime shared by every figure
// generated under one Options value: the execution backend (in-process
// worker pool or multi-process shard coordinator), the
// content-addressed run cache, the pretrained-controller cache, and the
// structured result store.
type Runtime struct {
	exec  *runtime.Executor
	cache *runtime.Cache
	store *runtime.Store
	// record gates result-store retention: full per-round histories for
	// every cell are kept in memory only when a consumer asked for them
	// (see EnableStore).
	record bool
	// onJob, when set, observes every job a batch submits (test hook
	// for spec round-trip coverage).
	onJob func(runtime.Job)
	// col is the run's one accounting source: job-level counters from
	// the executor, cache-level I/O from the cache, per-endpoint
	// dispatch counters from the coordinator, and per-job phase timings
	// and pretrain warm-ups folded in per result. Stats, PretrainStats
	// and Metrics are views of it.
	col *telemetry.Collector
	// traceLevel, when non-empty, is stamped onto every JobSpec this
	// runtime compiles (telemetry.TraceDecisions records RL decision
	// traces as spec-addressed cache artifacts).
	traceLevel string

	// The pretrained-controller singleflight: one warm-up per distinct
	// (scenario, controller config, warm-up seed/rounds) key per
	// process, no matter how many cells across how many workers request
	// the same pretrained Q-tables concurrently.
	pretrainMu sync.Mutex
	pretrains  map[string]*pretrainEntry
	// builtSnaps holds the serialized artifacts of snapshots this
	// process built from scratch, keyed by pretrain key and guarded by
	// pretrainMu. Each artifact is taken exactly once, by the first
	// finished job sharing the key (attachBuiltSnapshot), which carries
	// it back to the coordinator over the wire.
	builtSnaps map[string]json.RawMessage
}

// pretrainEntry is one pretrain key's singleflight slot. A plain
// sync.Once would be wrong here: a panic inside the warm-up would mark
// the once done and hand every sibling cell a zero-value snapshot —
// an untrained controller producing plausible-but-wrong results that
// would then be cached. Instead the entry records the outcome and
// replays a panic to every requester, so each affected cell fails
// loudly (and is never cached) exactly like the cell that warmed it.
type pretrainEntry struct {
	mu       sync.Mutex
	done     bool
	snap     core.Snapshot
	panicked any
}

// NewRuntime builds a runtime on the in-process pool backend with the
// given worker count (0 selects GOMAXPROCS) and optional on-disk cache
// directory ("" keeps the run cache in memory only).
func NewRuntime(parallel int, cacheDir string) (*Runtime, error) {
	cache, err := runtime.NewCache(cacheDir)
	if err != nil {
		return nil, err
	}
	return NewRuntimeWithBackend(runtime.NewPoolBackend(parallel), cache), nil
}

// NewRuntimeWithBackend builds a runtime on an explicit execution
// backend and cache — the constructor behind the CLIs' -backend flag.
// With a Coordinator the batch is dispatched across worker endpoints;
// sharing the cache's directory with the workers gives run results and
// pretrained-controller snapshots one home, so hit semantics match the
// pool backend's exactly.
func NewRuntimeWithBackend(b runtime.Backend, cache *runtime.Cache) *Runtime {
	r := &Runtime{
		exec:      runtime.NewExecutorBackend(b, cache),
		cache:     cache,
		store:     runtime.NewStore(),
		pretrains: make(map[string]*pretrainEntry),
		col:       telemetry.NewCollector(),
	}
	// Telemetry is wired by construction: executor (job-level counters,
	// per-job phase fold-in; it hands the collector on to a coordinator
	// backend for the per-endpoint counters) and cache (I/O timings,
	// mem/disk hit split).
	r.exec.SetCollector(r.col)
	cache.SetCollector(r.col)
	// A coordinator backend additionally gets the run cache so worker-
	// returned pretrain snapshots persist under their own keys
	// and re-ship fleet-wide.
	if bc, ok := b.(interface {
		SetCache(*runtime.Cache)
	}); ok {
		bc.SetCache(cache)
	}
	return r
}

// Stats returns the run's job-level and per-endpoint counters.
func (r *Runtime) Stats() runtime.Stats { return r.exec.Stats() }

// Close flushes the runtime's deferred cache maintenance (queued LRU
// mtime touches). Call it when a process is done running batches —
// after the last figure of a report, or when a worker's serve loop
// returns. The runtime stays usable afterwards.
func (r *Runtime) Close() error { return r.exec.Close() }

// SetTraceLevel sets the RL decision-trace level stamped onto every
// job this runtime compiles: telemetry.TraceDecisions enables
// per-round decision recording for traceable cells, "" (the default)
// disables it. Tracing never changes canonical keys or result bytes;
// it only adds spec-addressed trace artifacts to the cache.
func (r *Runtime) SetTraceLevel(level string) { r.traceLevel = level }

// TraceLevel returns the configured decision-trace level.
func (r *Runtime) TraceLevel() string { return r.traceLevel }

// Metrics snapshots the runtime's accumulated telemetry.
func (r *Runtime) Metrics() telemetry.Metrics { return r.col.Snapshot() }

// Workers returns the execution backend's parallelism.
func (r *Runtime) Workers() int { return r.exec.Workers() }

// Backend returns the execution backend the runtime dispatches to.
func (r *Runtime) Backend() runtime.Backend { return r.exec.Backend() }

// SetInnerParallel has no effect: simulation rounds always run their
// participant loop serially.
//
// Deprecated: has no effect; kept only so prodbench/ builds — remove with the next prodbench change.
func (r *Runtime) SetInnerParallel(int) {}

// PretrainStats reports the pretrained-controller cache's activity:
// runs is how many Q-table warm-ups actually executed anywhere in the
// fleet (Counters.PretrainRuns — under the procs backend the warm-ups
// execute inside the workers, whose per-job telemetry carries them
// home), distinct how many distinct pretrain keys this process
// requested (zero on a coordinator). On a cold pool run runs ==
// distinct (exactly one warm-up per scenario/config); on a warm
// disk-cache rerun runs == 0.
func (r *Runtime) PretrainStats() (runs, distinct int) {
	runs = int(r.Metrics().Counters.PretrainRuns)
	r.pretrainMu.Lock()
	defer r.pretrainMu.Unlock()
	return runs, len(r.pretrains)
}

// pretrainedSnapshot returns (building at most once per process, and
// at most once ever under a persistent cache directory) the pretrained
// FedGPO controller snapshot for a scenario. The snapshot is always
// decoded from its cache-payload JSON, so every consumer sees the same
// values regardless of which cell warmed the cache first.
func (r *Runtime) pretrainedSnapshot(s ScenarioSpec, cfg core.Config, warmSeed int64, warmRounds int, key string) core.Snapshot {
	r.pretrainMu.Lock()
	e, ok := r.pretrains[key]
	if !ok {
		e = &pretrainEntry{}
		r.pretrains[key] = e
	}
	r.pretrainMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.panicked != nil {
		// The warm-up is deterministic, so retrying would fail the same
		// way; replay the failure for every cell that depends on it.
		panic(e.panicked)
	}
	if e.done {
		return e.snap
	}
	if !r.cache.Get(key, &e.snap) {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					e.panicked = rec
					panic(rec)
				}
			}()
			warmCfg := s.Config(warmSeed)
			warmCfg.MaxRounds = warmRounds
			snap := core.PretrainSnapshot(cfg, warmCfg)
			// Serialize once: the same bytes become the cache entry, the
			// snapshot every cell of this process uses, and the artifact
			// the first finished job sharing this key carries to the
			// coordinator for fleet-wide reuse — so a coordinator
			// persisting it writes the entry this process wrote.
			data, err := json.Marshal(snap)
			if err != nil {
				// Not serializable: use it in memory, uncached and unshipped.
				e.snap = snap
				return
			}
			_ = r.cache.Put(key, json.RawMessage(data))
			var decoded core.Snapshot
			if json.Unmarshal(data, &decoded) == nil {
				e.snap = decoded
			} else {
				e.snap = snap
			}
			r.pretrainMu.Lock()
			if r.builtSnaps == nil {
				r.builtSnaps = make(map[string]json.RawMessage)
			}
			r.builtSnaps[key] = data
			r.pretrainMu.Unlock()
		}()
	}
	e.done = true
	return e.snap
}

// attachBuiltSnapshot moves a freshly built pretrain artifact onto the
// first finished result that shares its affinity key — taken exactly
// once, so the artifact crosses the wire a single time no matter how
// many sibling cells follow. The carrying result also counts the
// warm-up in its per-job telemetry (Counters.PretrainRuns), which the
// coordinator folds fleet-wide: a cold sweep's counter equals the
// number of warm-ups that actually executed anywhere in the fleet.
func (r *Runtime) attachBuiltSnapshot(sp JobSpec, res *runtime.Result) {
	key := affinityKey(sp)
	if key == "" {
		return
	}
	r.pretrainMu.Lock()
	data, ok := r.builtSnaps[key]
	if ok {
		delete(r.builtSnaps, key)
	}
	r.pretrainMu.Unlock()
	if !ok {
		return
	}
	res.Snaps = append(res.Snaps, runtime.SnapshotArtifact{Key: key, Data: data})
	if res.Telemetry == nil {
		res.Telemetry = &telemetry.Metrics{}
	}
	res.Telemetry.Counters.PretrainRuns++
}

// InstallSnapshot installs a coordinator-shipped pretrained-controller
// artifact (WireRequest.Snaps) into this runtime's pretrain
// singleflight and run cache, so a cell needing key deserializes it
// instead of re-running the warm-up. An entry this process already
// resolved wins — the shipped copy is byte-identical by construction,
// so skipping it changes nothing.
func (r *Runtime) InstallSnapshot(key string, data json.RawMessage) error {
	var snap core.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("exp: installing snapshot %q: %w", key, err)
	}
	r.pretrainMu.Lock()
	e, ok := r.pretrains[key]
	if !ok {
		e = &pretrainEntry{}
		r.pretrains[key] = e
	}
	r.pretrainMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done || e.panicked != nil {
		return nil
	}
	e.snap = snap
	e.done = true
	// Persist like a locally built snapshot would (best effort), so this
	// process's cache directory serves future cold runs too.
	_ = r.cache.Put(key, data)
	return nil
}

// SetProgress installs a per-job progress callback.
func (r *Runtime) SetProgress(fn func(runtime.Progress)) { r.exec.SetProgress(fn) }

// EnableStore turns on result-store retention: from now on every cell
// the runtime runs or serves from cache is recorded, round history
// included. Off by default — a paper-scale report holds hundreds of
// multi-hundred-round histories, dead weight unless something (e.g.
// fedgpo-report's -results flag) will consume them.
func (r *Runtime) EnableStore() { r.record = true }

// StreamStore turns on result recording in streaming mode: every cell
// is appended to path as JSON Lines the moment its batch completes,
// and nothing is retained in memory — the recording path for sweeps
// too large to hold. Call CloseStore when done; runtime.Compact (or
// fedgpo-report -compact-results) rewrites the log as the canonical
// JSON array.
func (r *Runtime) StreamStore(path string) error {
	if err := r.store.StreamTo(path); err != nil {
		return err
	}
	r.record = true
	return nil
}

// CloseStore flushes and closes a streaming store (no-op otherwise),
// surfacing any write error the stream hit along the way.
func (r *Runtime) CloseStore() error { return r.store.Close() }

// Store returns the structured record of the cells retained since
// EnableStore was called (empty otherwise).
func (r *Runtime) Store() *runtime.Store { return r.store }

// cell is one (scenario, contender) simulation cell; crossed with the
// seed set it names the jobs of an experiment.
type cell struct {
	s ScenarioSpec
	c ContenderSpec
}

// RunSpecs compiles a spec batch and executes it through the runtime's
// executor, returning results in spec order — the programmatic entry
// point behind the figure constructors, exposed for benches and
// fleet-level tests.
func (r *Runtime) RunSpecs(specs []JobSpec) []runtime.Result { return r.runSpecs(specs) }

// runSpecs compiles a spec batch and executes it; see runAll.
func (r *Runtime) runSpecs(specs []JobSpec) []runtime.Result {
	jobs := make([]runtime.Job, len(specs))
	for i, sp := range specs {
		jobs[i] = r.Job(sp)
	}
	return r.runAll(jobs)
}

// runAll executes a job batch, records the results in the store, and
// re-panics on job failure — matching fl.Run's panic-on-invalid-config
// semantics while still letting the rest of the batch drain.
func (r *Runtime) runAll(jobs []runtime.Job) []runtime.Result {
	if r.onJob != nil {
		for _, j := range jobs {
			r.onJob(j)
		}
	}
	results := r.exec.RunAll(jobs)
	// Tag each result's wall-clock provenance. This happens after the
	// executor's cache write-backs, so cache entries never carry the
	// tag and stay byte-identical across cold and warm runs; only the
	// in-memory results (and the -results store JSON) see it.
	for i := range results {
		if results[i].Cached {
			results[i].Provenance = runtime.ProvenanceReplayed
		} else {
			results[i].Provenance = runtime.ProvenanceMeasured
		}
	}
	if r.record {
		r.store.Add(results...)
	}
	for _, res := range results {
		if res.Err != "" {
			panic(fmt.Sprintf("exp: job %q failed: %s", res.Key, res.Err))
		}
	}
	return results
}

// simSpec names one plain simulation cell: figures, sweeps and the
// grid search all describe their cells here so they share cache
// identity.
func simSpec(s ScenarioSpec, c ContenderSpec, seed int64) JobSpec {
	return JobSpec{Kind: KindSim, Scenario: s, Contender: c, Seed: seed}
}

// summaries fans len(cells) × len(seeds) jobs out over the execution
// backend and aggregates each cell over its seeds in seed order,
// exactly as fl.RunSeeds would — tables built from these summaries are
// byte-identical to the serial path regardless of backend or worker
// count.
func (r *Runtime) summaries(cells []cell, seeds []int64) []fl.Summary {
	specs := make([]JobSpec, 0, len(cells)*len(seeds))
	for _, cl := range cells {
		for _, seed := range seeds {
			specs = append(specs, simSpec(cl.s, cl.c, seed))
		}
	}
	results := r.runSpecs(specs)
	sums := make([]fl.Summary, len(cells))
	for i, cl := range cells {
		per := make([]fl.Result, len(seeds))
		for j := range seeds {
			per[j] = results[i*len(seeds)+j].Sim
		}
		sums[i] = fl.Summarize(cl.s.rounds(), per)
	}
	return sums
}

// SweepStatic runs one static-parameter simulation per entry of params
// on the scenario, fanned out over the options' runtime, and returns
// the per-run results in params order. The cells share their cache
// identity with the figure constructors', so a sweep warms the report
// cache and vice versa.
func SweepStatic(o Options, s ScenarioSpec, params []fl.Params, seed int64) []fl.Result {
	rt := o.runtime()
	specs := make([]JobSpec, len(params))
	for i, p := range params {
		specs[i] = simSpec(s, staticContender(p, ""), seed)
	}
	results := rt.runSpecs(specs)
	out := make([]fl.Result, len(results))
	for i, r := range results {
		out[i] = r.Sim
	}
	return out
}

// SweepScenarios runs one simulation per scenario spec at a single
// static parameter setting, fanned out over the options' runtime, and
// returns the per-run results in spec order — the executor behind
// fedgpo-sweep's -matrix and -scenario-file modes. The cells share
// their cache identity with every other constructor touching the same
// deployments, so a matrix sweep warms the report cache and vice
// versa.
func SweepScenarios(o Options, specs []ScenarioSpec, p fl.Params, seed int64) []fl.Result {
	rt := o.runtime()
	jobSpecs := make([]JobSpec, len(specs))
	for i, s := range specs {
		jobSpecs[i] = simSpec(s, staticContender(p, ""), seed)
	}
	results := rt.runSpecs(jobSpecs)
	out := make([]fl.Result, len(results))
	for i, r := range results {
		out[i] = r.Sim
	}
	return out
}

// gridSearchBest mirrors baseline.GridSearchBest through the runtime:
// same candidate order, same per-candidate seed averaging, same
// first-strictly-greater argmax — but with the grid's cells fanned out
// over the execution backend and individually cached.
func (r *Runtime) gridSearchBest(s ScenarioSpec, grid []fl.Params, seeds []int64) fl.Params {
	cells := make([]cell, len(grid))
	for i, p := range grid {
		cells[i] = cell{s, staticContender(p, "")}
	}
	sums := r.summaries(cells, seeds)
	best, bestPPW := grid[0], math.Inf(-1)
	for i, p := range grid {
		if sums[i].MeanPPW > bestPPW {
			best, bestPPW = p, sums[i].MeanPPW
		}
	}
	return best
}
