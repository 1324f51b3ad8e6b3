// Package bayesopt implements Gaussian-process Bayesian optimization
// over a discrete candidate set — the substrate of the paper's
// "Adaptive (BO)" baseline, which re-selects the FL global parameters
// every aggregation round using the same BO machinery state-of-the-art
// HPO methods build on (paper §4.1, citing Souza et al.).
//
// The implementation is a standard exact GP with an RBF kernel over
// normalized candidate coordinates and an expected-improvement
// acquisition function, maximizing a scalar reward. Observation noise
// is handled with a diagonal jitter.
//
// Observations are always candidates, so the kernel is memoized per
// candidate: the first Observe of candidate c fills the row
// k(c, ·) over the whole candidate set (at most m×m for m candidates),
// and both the Gram matrix K and every cross-covariance k* are read
// from those rows — a posterior evaluates no math.Exp. Each posterior
// still refactors K in O(n³) for a window of n observations, which is
// fine for the few hundred rounds of an FL run. Once ExploitAfter
// switches Suggest to argmax μ, the posterior skips σ and with it the
// per-candidate O(n²) triangular solve.
package bayesopt

import (
	"math"

	"fedgpo/internal/stats"
)

// Optimizer maximizes an unknown f over a fixed discrete candidate set.
// Not safe for concurrent use.
type Optimizer struct {
	points       [][]float64 // normalized candidate coordinates
	krow         [][]float64 // krow[c][i] = kernel(points[c], points[i]); nil until c is observed
	idx          []int       // observed candidate indices
	ys           []float64   // observed values
	rng          *stats.RNG
	lengthSc     float64
	noise        float64
	xi           float64 // EI exploration margin
	maxPoints    int     // cap on the GP design matrix (sliding window)
	exploitAfter int
	observed     int // lifetime observation count
}

// Config tunes the optimizer.
type Config struct {
	// LengthScale of the RBF kernel in normalized coordinate space.
	LengthScale float64
	// Noise is the observation-noise variance added to the kernel
	// diagonal.
	Noise float64
	// Xi is the expected-improvement exploration margin.
	Xi float64
	// Window caps the number of most-recent observations kept in the
	// GP (older rounds are stale under runtime variance anyway).
	Window int
	// ExploitAfter switches Suggest from expected improvement to pure
	// posterior-mean maximization once this many observations have
	// accumulated (0 = never). Round-by-round FL tuning needs the
	// optimizer to eventually commit — perpetual EI exploration keeps
	// perturbing the training configuration forever.
	ExploitAfter int
}

// DefaultConfig returns a reasonable operating point for round-by-round
// FL parameter tuning.
func DefaultConfig() Config {
	return Config{LengthScale: 0.35, Noise: 0.05, Xi: 0.01, Window: 60, ExploitAfter: 50}
}

// New builds an optimizer over the candidate coordinate set. Each
// candidate is a point in [0,1]^d (normalize before calling). It panics
// on an empty candidate set or inconsistent dimensions.
func New(candidates [][]float64, cfg Config, rng *stats.RNG) *Optimizer {
	if len(candidates) == 0 {
		panic("bayesopt: empty candidate set")
	}
	d := len(candidates[0])
	for _, c := range candidates {
		if len(c) != d {
			panic("bayesopt: inconsistent candidate dimensions")
		}
	}
	if cfg.LengthScale <= 0 || cfg.Noise <= 0 || cfg.Window <= 0 {
		panic("bayesopt: config values must be positive")
	}
	return &Optimizer{
		points:       candidates,
		krow:         make([][]float64, len(candidates)),
		rng:          rng,
		lengthSc:     cfg.LengthScale,
		noise:        cfg.Noise,
		xi:           cfg.Xi,
		maxPoints:    cfg.Window,
		exploitAfter: cfg.ExploitAfter,
	}
}

// Observations returns the number of (x, y) pairs currently in the GP.
func (o *Optimizer) Observations() int { return len(o.idx) }

// Observe records the outcome of evaluating candidate idx.
func (o *Optimizer) Observe(idx int, y float64) {
	if idx < 0 || idx >= len(o.points) {
		panic("bayesopt: candidate index out of range")
	}
	if o.krow[idx] == nil {
		row := make([]float64, len(o.points))
		for i, p := range o.points {
			row[i] = o.kernel(o.points[idx], p)
		}
		o.krow[idx] = row
	}
	o.idx = append(o.idx, idx)
	o.ys = append(o.ys, y)
	o.observed++
	if len(o.idx) > o.maxPoints {
		o.idx = o.idx[len(o.idx)-o.maxPoints:]
		o.ys = o.ys[len(o.ys)-o.maxPoints:]
	}
}

// Suggest returns the candidate index with the highest expected
// improvement under the current posterior (or, after ExploitAfter
// observations, the highest posterior mean). With no observations it
// explores uniformly at random.
func (o *Optimizer) Suggest() int {
	if len(o.idx) == 0 {
		return o.rng.Intn(len(o.points))
	}
	if o.exploitAfter > 0 && o.observed >= o.exploitAfter {
		mu, _ := o.posterior(false)
		return stats.ArgMax(mu)
	}
	mu, sigma := o.posterior(true)
	best := stats.Max(o.ys)
	bestIdx, bestEI := 0, math.Inf(-1)
	for i := range o.points {
		ei := expectedImprovement(mu[i], sigma[i], best, o.xi)
		if ei > bestEI {
			bestIdx, bestEI = i, ei
		}
	}
	return bestIdx
}

// kernel is the RBF covariance between two normalized points. It is
// symmetric bit for bit: (a−b)² == (b−a)² in IEEE arithmetic.
func (o *Optimizer) kernel(a, b []float64) float64 {
	d2 := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	return math.Exp(-d2 / (2 * o.lengthSc * o.lengthSc))
}

// posterior computes the GP posterior mean at every candidate, and
// the stddev too when needSigma is set (otherwise sigma may be nil).
// Values are standardized internally so the kernel amplitude can stay
// at 1.
func (o *Optimizer) posterior(needSigma bool) (mu, sigma []float64) {
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
	// K + noise·I
	k := make([][]float64, n)
	for i, ci := range o.idx {
		k[i] = make([]float64, n)
		for j, cj := range o.idx {
			k[i][j] = o.krow[ci][cj]
		}
		k[i][i] += o.noise
	}
	l, ok := cholesky(k)
	if !ok {
		// Numerically degenerate: fall back to prior.
		mu = make([]float64, len(o.points))
		sigma = make([]float64, len(o.points))
		for i := range sigma {
			mu[i] = mean
			sigma[i] = std
		}
		return mu, sigma
	}
	alpha := choleskySolve(l, yc)

	// μ accumulates over observations in window order for every
	// candidate at once, reading each kernel row contiguously.
	mu = make([]float64, len(o.points))
	for j, c := range o.idx {
		for i, kc := range o.krow[c] {
			mu[i] += kc * alpha[j]
		}
	}
	for i, m := range mu {
		mu[i] = m*std + mean
	}
	if !needSigma {
		return mu, nil
	}
	sigma = make([]float64, len(o.points))
	kstar := make([]float64, n)
	for i := range o.points {
		for j, c := range o.idx {
			kstar[j] = o.krow[c][i]
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
		sigma[i] = math.Sqrt(variance) * std
	}
	return mu, sigma
}

// expectedImprovement is the standard EI acquisition for maximization.
func expectedImprovement(mu, sigma, best, xi float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (mu - best - xi) / sigma
	return (mu-best-xi)*stdNormCDF(z) + sigma*stdNormPDF(z)
}

func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// cholesky returns the lower-triangular factor of a symmetric positive
// definite matrix, or ok=false if the matrix is not SPD.
func cholesky(a [][]float64) (l [][]float64, ok bool) {
	n := len(a)
	l = make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, true
}

// forwardSolve solves L·x = b for lower-triangular L.
func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for j := 0; j < i; j++ {
			sum -= l[i][j] * x[j]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// backSolve solves Lᵀ·x = b for lower-triangular L.
func backSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= l[j][i] * x[j]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// choleskySolve solves (L·Lᵀ)·x = b.
func choleskySolve(l [][]float64, b []float64) []float64 {
	return backSolve(l, forwardSolve(l, b))
}
