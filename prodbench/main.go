// Command prodbench is the repository's product benchmark: it times
// `fedgpo-report -quick` — every experiment of exp.Registry, in order,
// on a runtime built the way internal/cli builds it — end to end and
// per layer, and checks the report it produces.
//
// Usage, from the repository root:
//
//	bash prodbench/run.sh --workload report-quick-cold --seed 1 --seconds 35 --trace 0
//
// Workloads (see README.md for why each was chosen and what it
// bypasses):
//
//	report-quick-cold   in-process pool, empty cache directory
//	report-quick-warm   in-process pool, cache directory filled by an untimed pass
//	report-quick-fleet  two localhost TCP endpoints, memory-only caches
//
// Every pass runs in a fresh process, so no process-wide memo (such as
// exp's Fixed (Best) selection) carries over from one pass to the
// next. The driver starts passes one after another until --seconds
// have passed and reports medians. With --trace 0 it prints the
// end-to-end metrics of untraced passes; with --trace 1 it alternates
// untraced and traced passes and prints the per-layer metrics of the
// traced ones next to the tracing overhead. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "report-quick-cold, report-quick-warm or report-quick-fleet")
	seed := flag.Int64("seed", 1, "evaluation seed of the report (exp.Options.Seeds = {seed}; -quick runs seed 1)")
	seconds := flag.Int("seconds", 35, "how long to keep starting measured passes")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from traced passes, 0 = end-to-end metrics from untraced passes")
	pass := flag.String("pass", "", "run one pass in this process and report it as JSON: run or setup (used by the driver)")
	dir := flag.String("dir", "", "cache directory of a -pass process")
	probe := flag.String("probe", "", "scratch cache directory for a traced -pass process's cache probes")
	spans := flag.String("spans", "", "where a traced -pass process writes its spans")
	flag.Parse()

	w, ok := workloadByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "prodbench: unknown -workload %q\n", *workloadName)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "prodbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *pass != "" {
		os.Exit(passMain(w, *pass, *seed, *dir, *trace == 1, *probe, *spans))
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "prodbench: -seconds must be at least 1")
		os.Exit(2)
	}
	os.Exit(benchMain(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}
