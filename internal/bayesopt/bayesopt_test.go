package bayesopt

import (
	"math"
	"testing"

	"fedgpo/internal/stats"
)

// grid1D builds candidates at n evenly spaced points in [0,1].
func grid1D(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{float64(i) / float64(n-1)}
	}
	return out
}

// grid150 builds a 6×5×5 grid of 150 candidates in [0,1]^3, the shape
// of the Adaptive (BO) baseline's (B, E, K) grid.
func grid150() [][]float64 {
	var out [][]float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			for k := 0; k < 5; k++ {
				out = append(out, []float64{float64(i) / 5, float64(j) / 4, float64(k) / 4})
			}
		}
	}
	return out
}

// smooth3D is a unimodal test objective over [0,1]^3.
func smooth3D(p []float64) float64 {
	d := 0.0
	for i, c := range []float64{0.7, 0.3, 0.55} {
		d += (p[i] - c) * (p[i] - c)
	}
	return -d
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(nil, DefaultConfig(), stats.NewRNG(1)) },
		func() { New([][]float64{{0}, {0, 1}}, DefaultConfig(), stats.NewRNG(1)) },
		func() {
			c := DefaultConfig()
			c.LengthScale = 0
			New(grid1D(3), c, stats.NewRNG(1))
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFindsMaximumOfSmoothFunction(t *testing.T) {
	// f(x) = -(x-0.7)^2 peaks at x=0.7; BO should concentrate there.
	cand := grid1D(21)
	f := func(x float64) float64 { return -(x - 0.7) * (x - 0.7) }
	opt := New(cand, DefaultConfig(), stats.NewRNG(1))
	counts := make([]int, len(cand))
	for i := 0; i < 60; i++ {
		idx := opt.Suggest()
		counts[idx]++
		noise := stats.NewRNG(int64(i)).Gaussian(0, 0.001)
		opt.Observe(idx, f(cand[idx][0])+noise)
	}
	// The most-evaluated candidate in the last stretch should be near
	// 0.7 (index 14 of 0..20).
	lateBest := 0
	for i := 40; i < 60; i++ {
		_ = i
	}
	for i, c := range counts {
		if c > counts[lateBest] {
			lateBest = i
		}
	}
	x := cand[lateBest][0]
	if math.Abs(x-0.7) > 0.2 {
		t.Errorf("BO concentrated at x=%v, want near 0.7 (counts=%v)", x, counts)
	}
}

func TestColdStartIsRandomButValid(t *testing.T) {
	opt := New(grid1D(5), DefaultConfig(), stats.NewRNG(2))
	for i := 0; i < 20; i++ {
		idx := opt.Suggest()
		if idx < 0 || idx >= 5 {
			t.Fatalf("suggestion %d out of range", idx)
		}
	}
	if opt.Observations() != 0 {
		t.Error("no observations should be recorded yet")
	}
}

func TestWindowCapsObservations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 10
	opt := New(grid1D(5), cfg, stats.NewRNG(3))
	for i := 0; i < 30; i++ {
		opt.Observe(i%5, float64(i))
	}
	if got := opt.Observations(); got != 10 {
		t.Errorf("window kept %d observations, want 10", got)
	}
}

func TestObservePanicsOnBadIndex(t *testing.T) {
	opt := New(grid1D(3), DefaultConfig(), stats.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	opt.Observe(3, 1)
}

func TestCholeskyRoundTrip(t *testing.T) {
	a := [][]float64{
		{4, 2, 0.6},
		{2, 5, 1.2},
		{0.6, 1.2, 3},
	}
	l, ok := cholesky(a)
	if !ok {
		t.Fatal("SPD matrix rejected")
	}
	// Check L·Lᵀ == A.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			sum := 0.0
			for k := 0; k < 3; k++ {
				sum += l[i][k] * l[j][k]
			}
			if math.Abs(sum-a[i][j]) > 1e-9 {
				t.Errorf("LL^T[%d][%d] = %v, want %v", i, j, sum, a[i][j])
			}
		}
	}
	// Solve check: (LLᵀ)x = b.
	b := []float64{1, 2, 3}
	x := choleskySolve(l, b)
	for i := 0; i < 3; i++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			sum += a[i][j] * x[j]
		}
		if math.Abs(sum-b[i]) > 1e-9 {
			t.Errorf("solve residual at %d: %v vs %v", i, sum, b[i])
		}
	}
	if _, ok := cholesky([][]float64{{-1}}); ok {
		t.Error("non-SPD matrix should be rejected")
	}
}

func TestEIProperties(t *testing.T) {
	// Higher mean -> higher EI at equal sigma.
	if expectedImprovement(1, 0.5, 0, 0.01) <= expectedImprovement(0.5, 0.5, 0, 0.01) {
		t.Error("EI should increase with posterior mean")
	}
	// Zero sigma -> zero EI.
	if expectedImprovement(10, 0, 0, 0.01) != 0 {
		t.Error("EI with zero sigma should be 0")
	}
	// EI is non-negative.
	if expectedImprovement(-5, 0.1, 0, 0.01) < 0 {
		t.Error("EI must be non-negative")
	}
}

func TestNormalHelpers(t *testing.T) {
	if math.Abs(stdNormCDF(0)-0.5) > 1e-12 {
		t.Error("CDF(0) != 0.5")
	}
	if math.Abs(stdNormPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Error("PDF(0) wrong")
	}
	if stdNormCDF(5) < 0.999 || stdNormCDF(-5) > 0.001 {
		t.Error("CDF tails wrong")
	}
}

// referencePosterior is the posterior as first written: one kernel call
// per pair for both K and k*, and σ always computed. The memoized
// posterior must match it bit for bit.
func referencePosterior(o *Optimizer) (mu, sigma []float64) {
	n := len(o.idx)
	mean := stats.Mean(o.ys)
	std := stats.StdDev(o.ys)
	if std < 1e-9 {
		std = 1
	}
	yc := make([]float64, n)
	for i, y := range o.ys {
		yc[i] = (y - mean) / std
	}
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = o.kernel(o.points[o.idx[i]], o.points[o.idx[j]])
		}
		k[i][i] += o.noise
	}
	mu = make([]float64, len(o.points))
	sigma = make([]float64, len(o.points))
	l, ok := cholesky(k)
	if !ok {
		for i := range sigma {
			mu[i] = mean
			sigma[i] = std
		}
		return mu, sigma
	}
	alpha := choleskySolve(l, yc)
	kstar := make([]float64, n)
	for i, p := range o.points {
		for j, c := range o.idx {
			kstar[j] = o.kernel(p, o.points[c])
		}
		m := 0.0
		for j := range kstar {
			m += kstar[j] * alpha[j]
		}
		v := forwardSolve(l, kstar)
		varReduction := 0.0
		for _, x := range v {
			varReduction += x * x
		}
		variance := 1 - varReduction
		if variance < 1e-12 {
			variance = 1e-12
		}
		mu[i] = m*std + mean
		sigma[i] = math.Sqrt(variance) * std
	}
	return mu, sigma
}

// TestPosteriorMatchesReference drives the optimizer past both
// ExploitAfter (50) and the Window slide (60) and checks, at every
// step, that the memoized posterior and Suggest reproduce the
// reference bit for bit.
func TestPosteriorMatchesReference(t *testing.T) {
	cand := grid150()
	for _, seed := range []int64{1, 2, 3} {
		cfg := DefaultConfig()
		opt := New(cand, cfg, stats.NewRNG(seed))
		noise := stats.NewRNG(seed + 100)
		for step := 0; step < 200; step++ {
			var want int
			exploit := opt.observed >= cfg.ExploitAfter
			if len(opt.idx) > 0 {
				refMu, refSigma := referencePosterior(opt)
				mu, sigma := opt.posterior(!exploit)
				for i := range refMu {
					if math.Float64bits(mu[i]) != math.Float64bits(refMu[i]) {
						t.Fatalf("seed %d step %d: mu[%d] = %v, want %v", seed, step, i, mu[i], refMu[i])
					}
					if !exploit && math.Float64bits(sigma[i]) != math.Float64bits(refSigma[i]) {
						t.Fatalf("seed %d step %d: sigma[%d] = %v, want %v", seed, step, i, sigma[i], refSigma[i])
					}
				}
				if exploit {
					want = stats.ArgMax(refMu)
				} else {
					best := stats.Max(opt.ys)
					bestEI := math.Inf(-1)
					for i := range refMu {
						if ei := expectedImprovement(refMu[i], refSigma[i], best, opt.xi); ei > bestEI {
							want, bestEI = i, ei
						}
					}
				}
			}
			idx := opt.Suggest()
			if len(opt.idx) > 0 && idx != want {
				t.Fatalf("seed %d step %d: Suggest = %d, want %d", seed, step, idx, want)
			}
			opt.Observe(idx, smooth3D(cand[idx])+noise.Gaussian(0, 0.01))
		}
		if opt.Observations() != cfg.Window {
			t.Fatalf("seed %d: window holds %d observations, want %d", seed, opt.Observations(), cfg.Window)
		}
	}
}

// BenchmarkSuggest times one BO round — Suggest then Observe — over the
// Adaptive (BO) baseline's 150-point grid with a full observation
// window. "ei" disables ExploitAfter so every round runs the
// expected-improvement path; "exploit" keeps DefaultConfig, whose
// window (60) is past ExploitAfter (50), so rounds maximize μ.
func BenchmarkSuggest(b *testing.B) {
	cand := grid150()
	for _, mode := range []string{"ei", "exploit"} {
		b.Run(mode, func(b *testing.B) {
			cfg := DefaultConfig()
			if mode == "ei" {
				cfg.ExploitAfter = 0
			}
			opt := New(cand, cfg, stats.NewRNG(1))
			noise := stats.NewRNG(2)
			round := func() {
				idx := opt.Suggest()
				opt.Observe(idx, smooth3D(cand[idx])+noise.Gaussian(0, 0.01))
			}
			for opt.Observations() < cfg.Window {
				round()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
