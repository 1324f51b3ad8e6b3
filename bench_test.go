// Package fedgpo's root benchmark harness: one benchmark per paper
// figure/table, each regenerating the artifact through internal/exp.
//
// Benchmarks run at the Quick scale (100 devices, 1 seed) so that
// `go test -bench=.` finishes in minutes; the paper-scale 200-device
// tables come from `go run ./cmd/fedgpo-report` or
// `go run ./cmd/fedgpo-sim -exp <id>`.
//
// Each benchmark additionally reports a headline metric via
// b.ReportMetric so regressions in the reproduced *result* (not just
// its runtime) are visible in benchmark diffs.
package fedgpo

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	stdruntime "runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/runtime"
	"fedgpo/internal/workload"
)

// benchOpts is the shared benchmark scale.
func benchOpts() exp.Options { return exp.Quick() }

// ratioCell parses a "1.23x" table cell.
func ratioCell(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%fx", &v)
	return v
}

// pctCell parses a "95.1%" table cell.
func pctCell(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v
}

// runExperiment executes the experiment b.N times, reporting the last
// table through the supplied metric extractor.
func runExperiment(b *testing.B, id string, metric func(exp.Table) (string, float64)) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var table exp.Table
	for i := 0; i < b.N; i++ {
		table = e.Run(benchOpts())
	}
	if metric != nil {
		name, v := metric(table)
		b.ReportMetric(v, name)
	}
}

// lastRatioFor finds the last row matching the controller name and
// returns the ratio in the given column.
func lastRatioFor(t exp.Table, controller string, col int) float64 {
	v := 0.0
	for _, row := range t.Rows {
		if len(row) > col && row[1] == controller {
			v = ratioCell(row[col])
		}
	}
	return v
}

func BenchmarkFig1_ParamSweep(b *testing.B) {
	runExperiment(b, "fig1", func(t exp.Table) (string, float64) {
		// Headline: PPW of B=8 relative to the (1,10,20) baseline.
		for _, row := range t.Rows {
			if row[0] == "B" && row[1] == "8" {
				return "ppw_B8_vs_base", ratioCell(row[3])
			}
		}
		return "ppw_B8_vs_base", 0
	})
}

func BenchmarkFig2_WorkloadShift(b *testing.B) {
	runExperiment(b, "fig2", nil)
}

func BenchmarkFig3_RoundTime(b *testing.B) {
	runExperiment(b, "fig3", func(t exp.Table) (string, float64) {
		// Headline: the L/H gap at B=8, E=10.
		for _, row := range t.Rows {
			if row[0] == "E" && row[1] == "10" {
				return "LH_gap_E10", ratioCell(row[4]) / ratioCell(row[2])
			}
		}
		return "LH_gap_E10", 0
	})
}

func BenchmarkFig4_RuntimeVariance(b *testing.B) {
	runExperiment(b, "fig4", func(t exp.Table) (string, float64) {
		// Headline: interfered-L inflation over clean L.
		return "intfL_vs_cleanL", ratioCell(t.Rows[1][3]) / ratioCell(t.Rows[0][3])
	})
}

func BenchmarkFig5_AdaptiveEnergy(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

func BenchmarkFig6_AdaptiveSummary(b *testing.B) {
	runExperiment(b, "fig6", func(t exp.Table) (string, float64) {
		for _, row := range t.Rows {
			if row[0] == "global PPW" {
				return "adaptive_ppw_vs_fixed", ratioCell(row[2])
			}
		}
		return "adaptive_ppw_vs_fixed", 0
	})
}

func BenchmarkFig7_DataHeterogeneity(b *testing.B) {
	runExperiment(b, "fig7", nil)
}

func BenchmarkFig9_Overview(b *testing.B) {
	runExperiment(b, "fig9", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", lastRatioFor(t, "FedGPO", 2)
	})
}

func BenchmarkFig10_RuntimeVariance(b *testing.B) {
	runExperiment(b, "fig10", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", lastRatioFor(t, "FedGPO", 2)
	})
}

func BenchmarkFig11_DataHeterogeneity(b *testing.B) {
	runExperiment(b, "fig11", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", lastRatioFor(t, "FedGPO", 2)
	})
}

func BenchmarkFig12_PriorWork(b *testing.B) {
	runExperiment(b, "fig12", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fedex", lastRatioFor(t, "FedGPO", 2)
	})
}

func BenchmarkTable5_PredictionAccuracy(b *testing.B) {
	runExperiment(b, "tab5", func(t exp.Table) (string, float64) {
		return "pred_acc_ideal_pct", pctCell(t.Rows[0][2])
	})
}

func BenchmarkSec54_Overhead(b *testing.B) {
	runExperiment(b, "sec54", nil)
}

func BenchmarkAblation_Epsilon(b *testing.B) {
	runExperiment(b, "abl-eps", nil)
}

func BenchmarkAblation_GammaMu(b *testing.B) {
	runExperiment(b, "abl-gm", nil)
}

func BenchmarkAblation_Tables(b *testing.B) {
	runExperiment(b, "abl-tables", nil)
}

func BenchmarkAblation_Beta(b *testing.B) {
	runExperiment(b, "abl-beta", nil)
}

func BenchmarkAblation_ColdStart(b *testing.B) {
	runExperiment(b, "abl-cold", nil)
}

// BenchmarkRuntimeSpeedup measures the parallel experiment runtime's
// wall-clock wins, reported via b.ReportMetric so the perf trajectory
// tracks them:
//
//   - speedup_x: the same batch of independent simulation cells
//     executed on one worker versus all cores (cross-cell sharding).
//     On a single-core machine the ratio is ~1 by construction.
//   - fig11_seconds / pretrain_warmups: cold generation time of a
//     comparison figure and how many FedGPO Q-table warm-ups it
//     actually ran — the pretrained-controller cache shares one
//     warm-up per scenario across every cell, seed and probe, which
//     is the dominant fixed cost of the comparison figures.
//   - warm_speedup_x: a 200-device sweep against a cold on-disk run
//     cache versus a rerun over the populated cache (every cell
//     replayed). The heavier fleet keeps cold simulation well above
//     the warm path's per-cell decode cost now that the PR 9 kernel
//     simulates small cells about as fast as their cache entries parse.
//   - wire_bytes_per_cell: what one of the sweep's cells costs on the
//     wire in batched, compressed envelope frames, measured on the
//     real request and response payloads (round histories included).
//     CI gates an absolute ceiling.
//   - results_rss_bytes: the in-memory retention of recording the
//     sweep's results in a buffered store — the bytes the streaming
//     JSONL store keeps off the heap.
//   - fleet_pretrain_runs / fleet_scenarios / affinity_hit_rate: a
//     cold 2-endpoint fleet sweep of warm-FedGPO cells over S
//     scenarios must execute exactly S Q-table warm-ups fleet-wide —
//     the affinity router co-locates each scenario's cells, the
//     per-process singleflight dedups within an endpoint, and the wire
//     ships the snapshot to any cell scheduled elsewhere. CI gates
//     fleet_pretrain_runs == fleet_scenarios.
//   - warm_ns_per_cell: the warm rerun's absolute per-cell cost —
//     the cache plane's replay latency on its own scale, not hidden
//     inside a ratio against cold simulation time.
//   - cache_bytes_per_cell: what one of the sweep's cells costs on
//     disk as a binary cache envelope, measured on the real results
//     (round histories included). CI gates an absolute ceiling.
//   - key_allocs_per_op: heap allocations of one warm-path key
//     resolution (AppendKey into a reused buffer + in-place SHA-256 +
//     shard placement). CI gates this at exactly zero.
//   - sim_allocs_per_round / sim_ns_per_round: the simulation kernel
//     itself — one warmed-arena cell run steady-state, heap
//     allocations (ReadMemStats Mallocs delta, exact) and wall time
//     per round. CI gates the allocation ceiling; since PR 9 the
//     round loop is arena-backed and allocation-free in steady state.
//
// The serial/parallel sweep timings are min-of-N over interleaved
// passes, so a background scheduling hiccup on one side cannot fake a
// regression (or a win).
//
// With BENCH_JSON=<path> in the environment the reported metrics are
// additionally written as a JSON artifact so CI can gate on the bench
// trajectory (see .github/workflows/ci.yml).
func BenchmarkRuntimeSpeedup(b *testing.B) {
	s := exp.Ideal(workload.CNNMNIST())
	s.Fleet.Size = 20
	s.MaxRounds = 200
	var params []fl.Params
	for _, bb := range fl.BValues() {
		for _, e := range fl.EValues() {
			params = append(params, fl.Params{B: bb, E: e, K: 10})
		}
	}
	sweep := func(parallel int) time.Duration {
		o := exp.Tiny()
		o.Parallel = parallel
		start := time.Now()
		exp.SweepStatic(o, s, params, 1)
		return time.Since(start)
	}
	fig11 := func() (time.Duration, int) {
		rt, err := exp.NewRuntime(0, "")
		if err != nil {
			b.Fatal(err)
		}
		o := exp.Tiny()
		o.Seeds = []int64{1, 2}
		start := time.Now()
		exp.Fig11(o.WithRuntime(rt))
		warmups, _ := rt.PretrainStats()
		return time.Since(start), warmups
	}
	// The cache probe runs on a heavier fleet than s: per-round
	// simulation cost scales with fleet size while a warm replay's cost
	// (decoding the cached round history) does not, and since the PR 9
	// arena/memo pass a 20-device cold cell simulates about as fast as
	// its cache entry decodes — the ratio would no longer discriminate a
	// broken warm path from an honest one. At 200 devices cold
	// simulation dominates again.
	sCache := s
	sCache.Fleet.Size = 200
	cached := func(dir string) time.Duration {
		o := exp.Tiny()
		o.CacheDir = dir
		start := time.Now()
		exp.SweepStatic(o, sCache, params, 1)
		return time.Since(start)
	}
	// wireAndStore measures the data-plane metrics on the sweep's real
	// cells: encode every request and its actual result both ways for
	// bytes-per-cell (wire frames and cache envelopes), and record the
	// results in a buffered store for the retention footprint the
	// streaming store avoids.
	wireAndStore := func() (wireBytes, rss, cacheBytes float64) {
		rt, err := exp.NewRuntime(0, "")
		if err != nil {
			b.Fatal(err)
		}
		jobs := make([]runtime.Job, len(params))
		reqs := make([]runtime.WireRequest, len(params))
		for i, p := range params {
			sp := exp.JobSpec{Kind: exp.KindSim, Scenario: s,
				Contender: exp.ContenderSpec{Type: exp.ContStatic, Name: "Fixed" + p.String(), Params: p}, Seed: 1}
			jobs[i] = rt.Job(sp)
			reqs[i] = runtime.WireRequest{Key: jobs[i].Key(), Spec: jobs[i].Payload}
		}
		results := runtime.NewPoolBackend(0).Run(jobs, nil)
		resps := make([]runtime.WireResponse, len(results))
		for i, r := range results {
			resps[i] = runtime.WireResponse{Key: r.Key, Result: r}
		}
		wireBytes, err = runtime.WireBytesPerCell(reqs, resps, 8)
		if err != nil {
			b.Fatal(err)
		}
		cacheBytes, err = runtime.CacheBytesPerCell(results)
		if err != nil {
			b.Fatal(err)
		}
		store := runtime.NewStore()
		store.Add(results...)
		return wireBytes, float64(store.RetainedBytes()), cacheBytes
	}
	// keyAllocs measures the per-job canonical-key resolution the
	// executor performs on the warm path — AppendKey into a reused
	// buffer, SHA-256 in place, shard placement from the digest. CI
	// gates this at exactly zero.
	keyAllocs := func() float64 {
		rt, err := exp.NewRuntime(1, "")
		if err != nil {
			b.Fatal(err)
		}
		job := rt.Job(exp.JobSpec{Kind: exp.KindSim, Scenario: s,
			Contender: exp.ContenderSpec{Type: exp.ContStatic, Name: "Fixed" + params[0].String(), Params: params[0]}, Seed: 1})
		buf := make([]byte, 0, 1024)
		var sink int
		allocs := testing.AllocsPerRun(200, func() {
			buf = job.AppendKey(buf[:0])
			sink = runtime.ShardOfHashed(runtime.HashKeyBytes(buf), 8)
		})
		_ = sink
		return allocs
	}
	// fleetReuse runs a cold warm-FedGPO sweep over S scenarios against
	// a 2-endpoint localhost fleet and reports how many Q-table
	// warm-ups the whole fleet executed plus the router's hit rate.
	fleetReuse := func() (pretrainRuns, scenarios, hitRate float64) {
		w := workload.CNNMNIST()
		build := func(f func(workload.Workload) exp.ScenarioSpec) exp.ScenarioSpec {
			sc := f(w)
			sc.Fleet.Size = 20
			sc.MaxRounds = 60
			return sc
		}
		scens := []exp.ScenarioSpec{build(exp.Ideal), build(exp.Realistic), build(exp.RealisticNonIID)}
		var specs []exp.JobSpec
		for _, sc := range scens {
			for seed := int64(1); seed <= 4; seed++ {
				specs = append(specs, exp.JobSpec{
					Kind: exp.KindSim, Scenario: sc,
					Contender: exp.FedGPOWarmContender(sc), Seed: seed,
				})
			}
		}
		var addrs []string
		var shutdowns []func()
		for i := 0; i < 2; i++ {
			wrt, err := exp.NewRuntime(1, "")
			if err != nil {
				b.Fatal(err)
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				errc <- runtime.Serve(ctx, lis, runtime.ServeConfig{
					Capacity: 2,
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
			addrs = append(addrs, lis.Addr().String())
			shutdowns = append(shutdowns, func() {
				cancel()
				if err := <-errc; err != nil {
					b.Error(err)
				}
			})
		}
		cache, err := runtime.NewCache("")
		if err != nil {
			b.Fatal(err)
		}
		rt := exp.NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
			Workers: addrs,
		}), cache)
		for _, r := range rt.RunSpecs(specs) {
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
		for _, stop := range shutdowns {
			stop()
		}
		m := rt.Metrics()
		var hits, placed int64
		for _, ep := range m.Endpoints {
			hits += ep.AffinityHits
			placed += ep.AffinityHits + ep.AffinityMisses
		}
		if placed > 0 {
			hitRate = float64(hits) / float64(placed)
		}
		return float64(m.Counters.PretrainRuns), float64(len(scens)), hitRate
	}
	// simKernel measures the round loop itself, isolated from the sweep
	// substrate: one simulation cell on a pre-warmed arena. Allocations
	// come from the exact Mallocs delta, not sampling; time is min-of-N
	// so the ns/round figure is the kernel's floor.
	simKernel := func() (allocsPerRound, nsPerRound float64) {
		w := workload.CNNMNIST()
		fleet := device.NewFleet(device.PaperComposition().Scale(20))
		cfg := fl.Config{
			Workload:          w,
			Fleet:             fleet,
			Partition:         data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
			Channel:           netsim.StableChannel(),
			Interference:      interfere.None(),
			MaxRounds:         200,
			Seed:              1,
			StopAtConvergence: false,
		}
		p := fl.Params{B: 8, E: 10, K: 10}
		a := fl.NewArena()
		fl.RunWithArena(cfg, fl.NewStatic(p), a) // warm arena + memo tables
		var m0, m1 stdruntime.MemStats
		for pass := 0; pass < 5; pass++ {
			ctrl := fl.NewStatic(p)
			stdruntime.ReadMemStats(&m0)
			start := time.Now()
			res := fl.RunWithArena(cfg, ctrl, a)
			d := time.Since(start)
			stdruntime.ReadMemStats(&m1)
			rounds := float64(res.RoundsExecuted)
			apr := float64(m1.Mallocs-m0.Mallocs) / rounds
			npr := float64(d.Nanoseconds()) / rounds
			if pass == 0 || apr < allocsPerRound {
				allocsPerRound = apr
			}
			if pass == 0 || npr < nsPerRound {
				nsPerRound = npr
			}
		}
		return allocsPerRound, nsPerRound
	}
	cores := stdruntime.GOMAXPROCS(0)
	var serial, parallel, figTime, cold, warm time.Duration
	warmups := 0
	minD := func(acc *time.Duration, d time.Duration) {
		if *acc == 0 || d < *acc {
			*acc = d
		}
	}
	for i := 0; i < b.N; i++ {
		// Interleaved min-of-N: alternating the passes keeps slow ambient
		// load from biasing one side of a ratio.
		for pass := 0; pass < 3; pass++ {
			minD(&serial, sweep(1))
			minD(&parallel, sweep(0))
		}
		ft, w := fig11()
		figTime += ft
		warmups = w
		// Cold fills a fresh on-disk cache; the warm rerun of the same
		// sweep replays every cell from it.
		dir := b.TempDir()
		cold += cached(dir)
		warm += cached(dir)
	}
	wireBytes, rssBytes, cacheBytes := wireAndStore()
	fleetRuns, fleetScens, hitRate := fleetReuse()
	keyAllocsPerOp := keyAllocs()
	simAllocs, simNs := simKernel()
	metrics := map[string]float64{
		"fleet_pretrain_runs":  fleetRuns,
		"fleet_scenarios":      fleetScens,
		"affinity_hit_rate":    hitRate,
		"speedup_x":            serial.Seconds() / parallel.Seconds(),
		"fig11_seconds":        figTime.Seconds() / float64(b.N),
		"pretrain_warmups":     float64(warmups),
		"workers":              float64(cores),
		"warm_speedup_x":       cold.Seconds() / warm.Seconds(),
		"warm_ns_per_cell":     float64(warm.Nanoseconds()) / float64(b.N*len(params)),
		"wire_bytes_per_cell":  wireBytes,
		"results_rss_bytes":    rssBytes,
		"cache_bytes_per_cell": cacheBytes,
		"key_allocs_per_op":    keyAllocsPerOp,
		"sim_allocs_per_round": simAllocs,
		"sim_ns_per_round":     simNs,
	}
	for name, v := range metrics {
		b.ReportMetric(v, name)
	}
	if path := os.Getenv("BENCH_JSON"); path != "" {
		writeBenchJSON(b, path, "BenchmarkRuntimeSpeedup", metrics)
	}
}

// writeBenchJSON emits a benchmark's reported metrics as a JSON
// artifact (no timestamps — the CI run carries provenance) so the
// perf trajectory can be archived and regression-gated.
func writeBenchJSON(b *testing.B, path, bench string, metrics map[string]float64) {
	b.Helper()
	out, err := json.MarshalIndent(struct {
		Bench   string             `json:"bench"`
		Metrics map[string]float64 `json:"metrics"`
	}{bench, metrics}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
