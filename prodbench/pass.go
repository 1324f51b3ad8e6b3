package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
)

// workload is one way of running the quick report. All workloads run
// the same experiments on the same options; they differ only in the
// execution backend and the state of the run cache.
type workload struct {
	name string
	// fleet dispatches through runtime.NewProcBackend to two localhost
	// runtime.Serve endpoints hosted in the pass process; otherwise the
	// in-process pool backend runs the cells.
	fleet bool
	// warm reads a cache directory an untimed pass filled beforehand;
	// otherwise every pass starts from an empty cache.
	warm bool
}

var workloads = []workload{
	{name: "report-quick-cold"},
	{name: "report-quick-warm", warm: true},
	{name: "report-quick-fleet", fleet: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fleetEndpoints is the number of TCP endpoints of the fleet workload;
// each serves one session at a time.
const fleetEndpoints = 2

// passOut is what one pass process reports to the driver on its last
// stdout line.
type passOut struct {
	// Ready is the wall clock (Unix ns) at which the runtime was built,
	// the cache directory open and any endpoints listening.
	Ready int64 `json:"ready"`
	// RunS is the wall time of the report itself, CPUS the process's
	// user+sys CPU time over the same interval, and RSSMB its peak
	// resident memory when the report ends. Checks and probes run after
	// these are taken.
	RunS  float64 `json:"run_s"`
	CPUS  float64 `json:"cpu_s"`
	RSSMB float64 `json:"rss_mb"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// took from this virtual machine during the report (0 on bare
	// metal): context for wall-clock readings, not a metric.
	StealFrac float64 `json:"steal_frac"`
	// Tables digests every report table except the wall-clock sec54
	// one; Results maps each job's short key hash to the short hash of
	// its result bytes with the wall-clock fields zeroed.
	Tables  string            `json:"tables,omitempty"`
	Results map[string]string `json:"results,omitempty"`
	// Simulated / Served / Errors are the executor's job counters.
	Simulated int64 `json:"simulated"`
	Served    int64 `json:"served"`
	Errors    int64 `json:"errors"`
	// PretrainRuns counts FedGPO warm-ups executed anywhere (the fleet
	// folds the workers' counts home over the wire); PretrainKeys the
	// distinct pretrain keys the cells asked for.
	PretrainRuns int64 `json:"pretrain_runs"`
	PretrainKeys int64 `json:"pretrain_keys"`
	// PPW / Conv are fig9's FedGPO "PPW (norm)" and "conv speedup"
	// columns, geometric mean over its workloads.
	PPW  float64 `json:"ppw"`
	Conv float64 `json:"conv"`
	// AllocMB / GCs are the Go heap allocation and collection count of
	// the report.
	AllocMB float64 `json:"alloc_mb"`
	GCs     uint32  `json:"gcs"`
	// Layers holds the per-layer metrics of a traced pass.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Err is set when the pass failed; the driver counts it failed.
	Err string `json:"err,omitempty"`
}

// passEnv is one pass process's runtime and the handles the checks and
// probes need.
type passEnv struct {
	rt    *exp.Runtime
	cache *runtime.Cache
	fleet *fleet
	tr    *tracer
}

// setUp builds the runtime the way internal/cli builds it for
// `fedgpo-report -quick [-cachedir DIR]` (or, for the fleet,
// `-workers a,b` with a memory-only cache): cache, prune to the
// default budget (keep everything), backend, runtime, adaptive inner
// budget. A traced pass wraps the backend and the endpoint handlers.
func setUp(w workload, dir string, traced bool) (*passEnv, error) {
	env := &passEnv{}
	if traced {
		env.tr = newTracer()
	}
	cacheDir := dir
	if w.fleet {
		cacheDir = ""
	}
	cache, err := runtime.NewCache(cacheDir)
	if err != nil {
		return nil, err
	}
	if _, err := cache.Prune(0); err != nil {
		return nil, err
	}
	var backend runtime.Backend
	if w.fleet {
		if env.fleet, err = startFleet(fleetEndpoints, env.tr); err != nil {
			return nil, err
		}
		backend = runtime.NewProcBackend(runtime.ProcConfig{
			Workers:       env.fleet.addrs,
			InnerParallel: -1,
			Route:         "affinity",
		})
	} else {
		backend = runtime.NewPoolBackend(0)
	}
	if env.tr != nil {
		backend = env.tr.wrapBackend(backend)
	}
	env.rt = exp.NewRuntimeWithBackend(backend, cache)
	env.rt.SetInnerParallel(-1)
	env.cache = cache
	return env, nil
}

// close stops the fleet's endpoints and waits for them to drain.
func (env *passEnv) close() error {
	if env.fleet == nil {
		return nil
	}
	return env.fleet.stop()
}

// runPass runs the quick report once on env and fills out everything
// but Ready.
func runPass(env *passEnv, seed int64, probeDir string) passOut {
	var out passOut
	var keysMu sync.Mutex
	keys := map[string]bool{}
	env.rt.SetProgress(func(p runtime.Progress) {
		keysMu.Lock()
		keys[p.Key] = true
		keysMu.Unlock()
	})
	opts := exp.Quick()
	opts.Seeds = []int64{seed}
	opts = opts.WithRuntime(env.rt)

	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	tables := sha256.New()
	cpu0, _ := usage()
	steal0 := stealTicks()
	start := time.Now()
	for _, e := range exp.Registry() {
		sp := env.tr.beginExp(e.ID)
		table, err := runExperiment(e, opts)
		env.tr.end(sp)
		if err != nil {
			out.Err = err.Error()
			break
		}
		md := table.Markdown()
		// sec54's overhead rows are wall-clock measurements.
		if e.ID != "sec54" {
			tables.Write([]byte(md))
		}
		if e.ID == "fig9" {
			if out.PPW, out.Conv, err = fedgpoHeadline(table); err != nil {
				out.Err = err.Error()
				break
			}
		}
	}
	_ = env.rt.Close()
	out.RunS = time.Since(start).Seconds()
	cpu1, rss := usage()
	out.CPUS, out.RSSMB = cpu1-cpu0, rss
	out.StealFrac = float64(stealTicks()-steal0) / clockTicks / (out.RunS * float64(goruntime.NumCPU()))
	goruntime.ReadMemStats(&after)
	out.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	out.GCs = after.NumGC - before.NumGC

	st := env.rt.Stats()
	m := env.rt.Metrics()
	out.Simulated, out.Served, out.Errors = st.Runs, st.Hits, st.Errors
	if env.fleet != nil {
		// Warm-ups run inside the endpoints; the coordinator's own
		// pretrain cache stays empty.
		out.PretrainRuns = m.Counters.PretrainRuns
		out.PretrainKeys = int64(env.fleet.pretrainKeys())
	} else {
		runs, distinct := env.rt.PretrainStats()
		out.PretrainRuns, out.PretrainKeys = int64(runs), int64(distinct)
	}
	if out.Err != "" {
		return out
	}
	out.Tables = hex.EncodeToString(tables.Sum(nil))[:16]

	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	results, err := resultDigests(env.cache, sorted)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Results = results
	if env.tr != nil {
		probes, err := probeCache(env.tr, env.cache, sorted, probeDir)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		out.Layers = env.tr.layers(layerInputs{
			metrics:  m,
			stats:    st,
			workers:  env.rt.Workers(),
			fleet:    env.fleet != nil,
			pretrain: out.PretrainRuns,
			probes:   probes,
			allocMB:  out.AllocMB,
			gcs:      out.GCs,
		})
	}
	return out
}

// usage returns the process's user+sys CPU seconds so far and its
// peak resident memory in MiB.
func usage() (cpuS, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// clockTicks is USER_HZ, the unit of /proc/stat (100 on Linux).
const clockTicks = 100

// stealTicks returns the machine-wide steal time from /proc/stat, in
// clock ticks (0 where it is not available).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// runExperiment runs one experiment, turning the panic a failed cell
// raises (see exp.Runtime's batch runner) into an error.
func runExperiment(e exp.Experiment, opts exp.Options) (t exp.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", e.ID, r)
		}
	}()
	return e.Run(opts), nil
}

// fedgpoHeadline returns the geometric means of fig9's FedGPO "PPW
// (norm)" and "conv speedup" columns over its workloads.
func fedgpoHeadline(t exp.Table) (ppw, conv float64, err error) {
	col := func(name string) int {
		for i, h := range t.Header {
			if h == name {
				return i
			}
		}
		return -1
	}
	ctrl, ppwCol, convCol := col("controller"), col("PPW (norm)"), col("conv speedup")
	if ctrl < 0 || ppwCol < 0 || convCol < 0 {
		return 0, 0, fmt.Errorf("fig9: unexpected header %v", t.Header)
	}
	var logPPW, logConv float64
	n := 0
	for _, row := range t.Rows {
		if row[ctrl] != "FedGPO" {
			continue
		}
		p, err1 := strconv.ParseFloat(strings.TrimSuffix(row[ppwCol], "x"), 64)
		c, err2 := strconv.ParseFloat(strings.TrimSuffix(row[convCol], "x"), 64)
		if err1 != nil || err2 != nil || p <= 0 || c <= 0 {
			return 0, 0, fmt.Errorf("fig9: unparsable FedGPO row %v", row)
		}
		logPPW += math.Log(p)
		logConv += math.Log(c)
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("fig9: no FedGPO rows")
	}
	return math.Exp(logPPW / float64(n)), math.Exp(logConv / float64(n)), nil
}

// resultDigests reads every job's result back from the pass's cache
// and hashes its bytes. fl.Result.ControllerOverheadSec is wall-clock,
// so it is zeroed first; sec54 results carry wall-clock overhead in
// Extra as well and are left out, like the sec54 table.
func resultDigests(cache *runtime.Cache, keys []string) (map[string]string, error) {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		if strings.Contains(k, "|sec54|") {
			continue
		}
		var r runtime.Result
		if !cache.Get(k, &r) {
			return nil, fmt.Errorf("result of %s missing from the run cache", shortHash(k))
		}
		r.Sim.ControllerOverheadSec = 0
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[shortHash(k)] = shortHash(string(b))
	}
	return out, nil
}

func shortHash(s string) string { return runtime.HashKey(s)[:16] }

// cellClass names the contender family a job belongs to: the probe
// kinds (oracle, qmem, sec54) are one class, plain simulation cells are
// classed by their contender type.
func cellClass(j runtime.Job) string {
	if j.Kind != exp.KindSim {
		return "probe"
	}
	sp, err := exp.DecodeJobSpec(j.Payload)
	if err != nil {
		return "unknown"
	}
	return specClass(sp)
}

func specClass(sp exp.JobSpec) string {
	if sp.Kind != exp.KindSim {
		return "probe"
	}
	return sp.Contender.Type
}

// controllerSec is the Plan+Observe time a cell spent, from the
// simulator's per-round mean.
func controllerSec(r fl.Result) float64 {
	return r.ControllerOverheadSec * float64(r.RoundsExecuted)
}
