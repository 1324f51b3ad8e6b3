// Command fedgpo-report runs the full experiment suite and emits a
// markdown report (the generator behind EXPERIMENTS.md). Simulation
// cells fan out over the experiment runtime's execution backend —
// in-process workers by default, worker subprocesses with
// -backend=procs — and with -cachedir a rerun only simulates cells
// whose configuration changed.
//
// Usage:
//
//	fedgpo-report [-quick] [-only fig9,fig12] [-parallel N]
//	              [-backend pool|procs] [-procs N] [-workers host:port,...]
//	              [-cachedir PATH] [-cache-max-bytes N]
//	              [-results PATH] > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fedgpo/internal/cli"
	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
)

func main() {
	quick := flag.Bool("quick", false, "reduced fleet and seeds")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	results := flag.String("results", "", "write the structured result store to this path: a .jsonl path streams cells to disk as they complete (bounded memory), any other path buffers and writes one JSON array at exit")
	compactResults := flag.String("compact-results", "", "instead of running experiments, compact the result log at this path (either format) into -results as the canonical JSON array")
	verbose := flag.Bool("v", false, "per-job progress and the telemetry summary on stderr")
	rtFlags := cli.Register(flag.CommandLine)
	flag.Parse()

	if rtFlags.HandleListScenarios(os.Stdout) {
		return
	}
	if *compactResults != "" {
		if *results == "" {
			fmt.Fprintln(os.Stderr, "fedgpo-report: -compact-results needs -results for the output path")
			os.Exit(1)
		}
		if err := runtime.Compact(*compactResults, *results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st, err := runtime.ReadStore(*results)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "result store: compacted %s -> %s (%d cells)\n", *compactResults, *results, st.Len())
		return
	}
	opts := exp.Default()
	if *quick {
		opts = exp.Quick()
	}
	rt, err := rtFlags.Runtime()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *verbose {
		rt.SetProgress(func(p runtime.Progress) {
			tag := ""
			if p.Cached {
				tag = " (cached)"
			}
			// The sec54 probe's overhead rows are wall-clock: surface
			// whether this run measured them or replayed values recorded
			// when the cell first ran.
			if strings.Contains(p.Key, "|sec54|") {
				if p.Cached {
					tag = " (overhead replayed-from-cache)"
				} else {
					tag = " (overhead measured)"
				}
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s%s\n", p.Done, p.Total, p.Key, tag)
		})
	}
	streaming := strings.HasSuffix(*results, ".jsonl")
	if *results != "" {
		if streaming {
			if err := rt.StreamStore(*results); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			rt.EnableStore()
		}
	}
	opts = opts.WithRuntime(rt)

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	fmt.Println("# FedGPO reproduction report")
	fmt.Println()
	fmt.Printf("Generated %s; fleet scale: %s.\n\n",
		time.Now().Format("2006-01-02"), scaleLabel(*quick))
	for _, e := range exp.Registry() {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		start := time.Now()
		table := e.Run(opts)
		fmt.Print(table.Markdown())
		fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", e.ID, time.Since(start).Seconds())
	}
	// Flush deferred cache maintenance before snapshotting telemetry so
	// the touch-flush counters cover the whole run.
	_ = rt.Close()
	m := rt.Metrics()
	fmt.Fprintf(os.Stderr, "runtime: %s backend, %d workers, %d cells simulated, %d served from cache, %d pretrain warm-ups executed\n",
		cli.BackendName(rt), rt.Workers(), m.Counters.SimsExecuted, m.Counters.CacheHits, m.Counters.PretrainRuns)
	if *verbose {
		fmt.Fprint(os.Stderr, m.Summary())
	}
	if err := rtFlags.WriteMetrics(rt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *results != "" {
		if streaming {
			if err := rt.CloseStore(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else if err := rt.Store().WriteFile(*results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "result store: %d cells -> %s\n", rt.Store().Len(), *results)
	}
}

func scaleLabel(quick bool) string {
	if quick {
		return "quick (100 devices, 1 seed)"
	}
	return "paper (200 devices)"
}
