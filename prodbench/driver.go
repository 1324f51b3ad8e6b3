package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is how many set-up-only processes a run starts: 10
// before its passes and then one after each pass, so the samples span
// the run. Their set-up times join the passes' in setup_s.
const setupProbes = 30

// minPasses is the fewest measured passes of each kind a run makes,
// however short --seconds is.
const minPasses = 3

// stealLimit is the share of the machine's CPU the hypervisor may take
// during a pass for the pass to count toward the run's medians. On a
// shared virtual machine, steal episodes lasting minutes slow wall time
// by half while the program's own work is unchanged.
const stealLimit = 0.10

// passTimeout bounds one pass process.
const passTimeout = 150 * time.Second

// passMain is a pass process: build the runtime, optionally run the
// report, print a passOut line.
func passMain(w workload, mode string, seed int64, dir string, traced bool, probeDir, spansPath string) int {
	if mode != "run" && mode != "setup" {
		fmt.Fprintf(os.Stderr, "prodbench: unknown -pass %q\n", mode)
		return 2
	}
	var out passOut
	env, err := setUp(w, dir, traced)
	if err != nil {
		out.Err = "set-up: " + err.Error()
	} else {
		ready := time.Now().UnixNano()
		if mode == "run" {
			out = runPass(env, seed, probeDir)
		}
		out.Ready = ready
		if err := env.close(); err != nil && out.Err == "" {
			out.Err = "tear-down: " + err.Error()
		}
		if traced && spansPath != "" {
			if err := env.tr.write(spansPath); err != nil && out.Err == "" {
				out.Err = "writing spans: " + err.Error()
			}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	if out.Err != "" {
		return 1
	}
	return 0
}

// sample is one pass process as the driver saw it.
type sample struct {
	out    passOut
	setupS float64
}

// driver starts the pass processes of one benchmark run.
type driver struct {
	// ctx is cancelled when the benchmark is interrupted; the running
	// pass process is killed and no further pass starts.
	ctx   context.Context
	self  string
	work  string
	seed  int64
	spans string
	n     int
}

// spawn runs one pass process of workload w over cache directory dir
// and waits for it to exit.
func (d *driver) spawn(w workload, mode, dir string, traced bool) (sample, error) {
	d.n++
	args := []string{"-workload", w.name, "-pass", mode, "-seed", strconv.FormatInt(d.seed, 10), "-dir", dir}
	if traced {
		probe := filepath.Join(d.work, fmt.Sprintf("probe-%d", d.n))
		defer os.RemoveAll(probe)
		args = append(args, "-trace", "1", "-probe", probe, "-spans", d.spans)
	}
	if err := d.ctx.Err(); err != nil {
		return sample{}, err
	}
	ctx, cancel := context.WithTimeout(d.ctx, passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, d.self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	runErr := cmd.Run()
	var s sample
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.out); err != nil {
		return s, fmt.Errorf("%s pass: %v (exit: %v)", w.name, err, runErr)
	}
	if s.out.Err != "" {
		return s, fmt.Errorf("%s pass: %s", w.name, s.out.Err)
	}
	if runErr != nil {
		return s, fmt.Errorf("%s pass: %w", w.name, runErr)
	}
	s.setupS = float64(s.out.Ready-start.UnixNano()) / 1e9
	return s, nil
}

// freshDir names a new, not yet created directory under the run's
// scratch space.
func (d *driver) freshDir(prefix string) string {
	d.n++
	return filepath.Join(d.work, fmt.Sprintf("%s-%d", prefix, d.n))
}

// benchMain runs one benchmark invocation and returns the exit code.
func benchMain(w workload, seed int64, budget time.Duration, traced bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "prodbench:", err)
		return 1
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", "prodbench"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "prodbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d := &driver{
		ctx:   ctx,
		self:  self,
		work:  filepath.Join(root, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())),
		seed:  seed,
		spans: filepath.Join(root, "trace", fmt.Sprintf("%s-seed%d.spans.json", w.name, seed)),
	}
	if err := os.MkdirAll(d.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "prodbench:", err)
		return 1
	}
	defer os.RemoveAll(d.work)

	fmt.Println("host:", hostFingerprint())
	r := &run{w: w}
	r.measure(d, budget, traced)
	return r.report(traced)
}

// run gathers one benchmark invocation's passes and the problems its
// checks found.
type run struct {
	w        workload
	plain    []sample // untraced measured passes
	traced   []sample // traced measured passes
	setups   []float64
	problems []string
	passes   int
	failed   int
}

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// spawn runs a pass and counts it; a failed pass is recorded as a
// problem and reported as !ok.
func (r *run) spawn(d *driver, w workload, mode, dir string, traced bool) (sample, bool) {
	s, err := d.spawn(w, mode, dir, traced)
	if mode == "run" {
		r.passes++
	}
	if err != nil {
		if mode == "run" {
			r.failed++
		}
		r.fail("%v", err)
		return s, false
	}
	return s, true
}

// measure makes the run's passes: the workload's untimed preparation
// and cross-check passes, the set-up probes, then measured passes until
// the budget is spent.
func (r *run) measure(d *driver, budget time.Duration, traced bool) {
	cold, _ := workloadByName("report-quick-cold")
	warm, _ := workloadByName("report-quick-warm")
	var ref sample
	var haveRef bool
	var warmDir string
	switch {
	case r.w.warm:
		// The untimed fill is a cold pass; the warm passes must
		// reproduce its tables and results from the cache alone.
		warmDir = d.freshDir("warm-cache")
		ref, haveRef = r.spawn(d, cold, "run", warmDir, false)
	case r.w.fleet:
		// The fleet must reproduce the in-process pool's report.
		ref, haveRef = r.spawn(d, cold, "run", d.freshDir("ref-cache"), false)
	}

	passDir := func() string {
		if r.w.warm {
			return warmDir
		}
		return d.freshDir("cache")
	}
	probes := 0
	probeSetup := func() {
		dir := passDir()
		if s, ok := r.spawn(d, r.w, "setup", dir, false); ok {
			r.setups = append(r.setups, s.setupS)
		}
		if !r.w.warm {
			os.RemoveAll(dir)
		}
		probes++
	}
	for probes < 10 {
		probeSetup()
	}

	var lastDir string
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		enough := len(r.plain) >= minPasses && (!traced || len(r.traced) >= minPasses)
		if enough && !time.Now().Before(deadline) {
			break
		}
		if r.failed > 0 && i >= minPasses || d.ctx.Err() != nil {
			break
		}
		if lastDir != "" && !r.w.warm {
			os.RemoveAll(lastDir)
		}
		lastDir = passDir()
		tracedPass := traced && i%2 == 1
		s, ok := r.spawn(d, r.w, "run", lastDir, tracedPass)
		if !ok {
			continue
		}
		r.setups = append(r.setups, s.setupS)
		if probes < setupProbes {
			probeSetup()
		}
		if tracedPass {
			r.traced = append(r.traced, s)
		} else {
			r.plain = append(r.plain, s)
		}
	}

	all := append(append([]sample(nil), r.plain...), r.traced...)
	if len(all) == 0 {
		r.fail("no pass completed")
		return
	}
	// Every pass asks for the same cells. On the fleet, a cell asked for
	// twice in one batch may be answered from the endpoint's own cache
	// instead of simulated again, so only the pool pins the split.
	first := all[0].out
	for i, s := range all {
		r.checkCounts(s.out)
		if i == 0 {
			continue
		}
		r.checkSame("pass", first, s.out)
		if s.out.Simulated+s.out.Served != first.Simulated+first.Served ||
			!r.w.fleet && s.out.Simulated != first.Simulated {
			r.fail("cell counts differ between passes: %d/%d simulated/served, then %d/%d",
				first.Simulated, first.Served, s.out.Simulated, s.out.Served)
		}
	}
	switch {
	case r.w.warm:
		if haveRef {
			r.checkCrossRun("fill pass", ref.out, first)
		}
	case r.w.fleet:
		if haveRef {
			r.checkSame("pool reference pass", ref.out, first)
			if got, want := first.Simulated+first.Served, ref.out.Simulated+ref.out.Served; got != want {
				r.fail("fleet answered %d cells, the pool %d", got, want)
			}
		}
	default:
		// A rerun over the last cold pass's cache must simulate nothing
		// and reproduce the report.
		if s, ok := r.spawn(d, warm, "run", lastDir, false); ok {
			if s.out.Simulated != 0 {
				r.fail("rerun over a cold pass's cache simulated %d cells", s.out.Simulated)
			}
			r.checkCrossRun("warm rerun", first, s.out)
		}
	}
}

// checkCounts checks one pass's cell and warm-up counts against its
// workload: a cold pass simulates and warms up once per pretrain key, a
// warm pass simulates nothing, and the fleet warms up once per distinct
// pretrain key across all its endpoints.
func (r *run) checkCounts(o passOut) {
	switch {
	case r.w.warm:
		if o.Simulated != 0 || o.PretrainRuns != 0 {
			r.fail("warm pass simulated %d cells and %d warm-ups, want 0 and 0", o.Simulated, o.PretrainRuns)
		}
	case r.w.fleet:
		if o.PretrainRuns != o.PretrainKeys || o.PretrainKeys == 0 {
			r.fail("fleet ran %d warm-ups for %d distinct pretrain keys", o.PretrainRuns, o.PretrainKeys)
		}
	default:
		if o.Simulated == 0 || o.PretrainRuns != o.PretrainKeys {
			r.fail("cold pass simulated %d cells and %d/%d warm-ups", o.Simulated, o.PretrainRuns, o.PretrainKeys)
		}
	}
}

// checkSame requires two passes of the same cold or warm shape to
// agree on every table and every result.
func (r *run) checkSame(what string, want, got passOut) {
	if got.Tables != want.Tables {
		r.fail("%s: tables digest %s, want %s", what, got.Tables, want.Tables)
	}
	if len(got.Results) != len(want.Results) {
		r.fail("%s: %d results, want %d", what, len(got.Results), len(want.Results))
	}
	r.checkResults(what, want, got)
}

// checkCrossRun compares a warm pass with the cold pass that filled its
// cache: same tables, and every result it read equal to the one the
// cold pass wrote. (A warm pass asks for fewer cells: the Fixed (Best)
// grid searches are answered by their own cache entries.)
func (r *run) checkCrossRun(what string, cold, warm passOut) {
	if warm.Tables != cold.Tables {
		r.fail("%s: tables digest %s, want %s", what, warm.Tables, cold.Tables)
	}
	r.checkResults(what, cold, warm)
}

func (r *run) checkResults(what string, want, got passOut) {
	bad := 0
	for k, h := range got.Results {
		if want.Results[k] != h {
			bad++
		}
	}
	if bad > 0 {
		r.fail("%s: %d of %d results differ", what, bad, len(got.Results))
	}
}

// calm returns the passes during which the hypervisor took at most
// stealLimit of the machine's CPU, or all passes when fewer than
// minPasses were that calm.
func calm(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.out.StealFrac <= stealLimit {
			out = append(out, s)
		}
	}
	if len(out) < minPasses {
		return ss
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Paper reference values of the headline metrics (FedGPO over Fixed
// (Best), average over the paper's workloads).
const (
	paperPPW  = 3.6
	paperConv = 2.4
)

// report prints the run's metrics and its verdict, and returns the
// exit code.
func (r *run) report(tracing bool) int {
	metrics := map[string]metric{}
	put := func(name, unit string, v float64, note string) {
		metrics[name] = metric{v, unit}
		fmt.Printf("  %-34s %14.6f %-11s %s\n", name, v, unit, note)
	}
	measured := len(r.plain) + len(r.traced)
	plain, traced := calm(r.plain), calm(r.traced)
	steal := column(append(append([]sample(nil), r.plain...), r.traced...),
		func(s sample) float64 { return s.out.StealFrac })
	fmt.Printf("workload %s: %d passes (%d failed), %d set-up samples\n", r.w.name, r.passes, r.failed, len(r.setups))
	fmt.Printf("hypervisor steal: median %.1f%% of the machine's CPU per pass; %d of %d measured passes above %.0f%% left out of the medians\n",
		100*median(steal), measured-len(plain)-len(traced), measured, 100*stealLimit)
	runS := column(plain, func(s sample) float64 { return s.out.RunS })
	switch {
	case len(plain) == 0:
	case !tracing:
		cpuS := column(plain, func(s sample) float64 { return s.out.CPUS })
		rss := column(plain, func(s sample) float64 { return s.out.RSSMB })
		var cells, errs int64
		for _, s := range r.plain {
			cells += s.out.Simulated + s.out.Served
			errs += s.out.Errors
		}
		first := r.plain[0].out
		put("run_s", "s", median(runS), spread(runS))
		put("cpu_s", "s", median(cpuS), spread(cpuS))
		put("setup_s", "s", median(r.setups), spread(r.setups))
		put("peak_rss_mb", "MB", median(rss), spread(rss))
		put("cell_ok_frac", "frac", 1-float64(errs)/float64(max(cells, 1)),
			fmt.Sprintf("(%d cells, %d failed)", cells, errs))
		put("fedgpo_ppw_x", "x", first.PPW, fmt.Sprintf("(paper: %.1fx)", paperPPW))
		put("fedgpo_conv_x", "x", first.Conv, fmt.Sprintf("(paper: %.1fx)", paperConv))
		fmt.Printf("  digest %s, %d simulated / %d served cells, %d/%d warm-ups per pass\n",
			first.Tables, first.Simulated, first.Served, first.PretrainRuns, first.PretrainKeys)
	case len(traced) > 0:
		names := make([]string, 0, len(traced[0].out.Layers))
		for name := range traced[0].out.Layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vals := column(traced, func(s sample) float64 { return s.out.Layers[name] })
			put(name, layerUnit(name), median(vals), "")
		}
		tracedS := column(traced, func(s sample) float64 { return s.out.RunS })
		put("trace.untraced_run_s", "s", median(runS), spread(runS))
		put("trace.run_s", "s", median(tracedS), spread(tracedS))
		put("trace.overhead_frac", "frac", median(tracedS)/median(runS)-1, "")
	}
	if tracing && len(r.traced) == 0 {
		r.fail("no traced pass completed")
	}
	for _, p := range r.problems {
		fmt.Println("  FAIL:", p)
	}
	correct := len(r.problems) == 0
	b, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.passes,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "ns_per_round"):
		return "ns"
	case strings.HasPrefix(name, "runtime.wire.bytes"), strings.HasSuffix(name, "_bytes"),
		strings.HasSuffix(name, "bytes_per_entry"):
		return "B"
	case strings.HasSuffix(name, "specs_per_frame"):
		return "specs/frame"
	}
	return "count"
}

func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread describes a sample's quartiles for the human-readable lines.
func spread(xs []float64) string {
	return fmt.Sprintf("(n=%d, p25 %.4f, p75 %.4f)", len(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}
