package core

import (
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/linalg"
	"repro/internal/model"
)

// The general-DAG continuous solver. Following Section 2.1 of the paper,
// MinEnergy(G, D) under the Continuous model is a geometric program: with
// durations dᵢ = wᵢ/sᵢ as variables the energy is Σ wᵢ³/dᵢ², a convex
// function, and the scheduling constraints are linear in the completion
// times tᵢ and durations dᵢ:
//
//	tᵢ + dⱼ ≤ tⱼ   for every edge (i, j)
//	dᵢ ≤ tᵢ        (start times are non-negative)
//	tᵢ ≤ D
//	dᵢ ≥ wᵢ/smax   (speed cap)
//
// We solve it with the primal-dual interior-point method of internal/convex
// after normalizing time by D and work by the critical-path weight, so all
// quantities are O(1) regardless of instance scale.

// ContinuousOptions tunes the numeric solver.
type ContinuousOptions struct {
	// Tol is the relative duality-gap target (default 1e-10).
	Tol float64
	// SMin, when positive, bounds speeds from below (sᵢ ≥ SMin): the
	// speed-bounded relaxation used by the Theorem 5 / Proposition 1
	// approximation constructions. Zero means unbounded below.
	SMin float64
	// Release, when non-nil, gives each task an earliest permitted start
	// (the residual re-solve constraint: frozen predecessors of an
	// executing schedule finished at these absolute times). nil means
	// every task may start at 0.
	Release []float64
	// Warm, when non-nil, seeds the interior point from the previous
	// solution's speed vector. The optimum (and the tolerance it is found
	// to) is unchanged — only the centering work shrinks. Stale or
	// infeasible warm data falls back to the cold start silently.
	Warm *WarmStart
	// DenseKernel routes the solve through the dense log-barrier oracle
	// (O(m·n²) assembly, O(n³) Cholesky) instead of the default sparse
	// primal-dual kernel. It exists as the oracle the property suite
	// checks the sparse path against; production solves should leave it
	// false.
	DenseKernel bool
	// Workers caps the parallelism of the sparse kernel (elimination-tree
	// factorization, constraint assembly, mat-vec loops). 0 selects
	// automatically by system size and GOMAXPROCS; 1 or negative forces
	// the sequential path (the bisection knob). See convex.Options.
	Workers int
	// Ordering forces the sparse kernel's fill-reducing ordering; the
	// zero value picks the cheaper of RCM and nested dissection.
	Ordering convex.Ordering
	// Kernels, when non-nil, caches the structure-determined compilation
	// of the geometric program (transitive reduction, CSR constraint
	// matrix, fill-reducing ordering, symbolic factorization) keyed by
	// the graph's structural fingerprint. Requests whose graphs share a
	// shape then skip the symbolic work entirely and pay only the numeric
	// solve; see KernelCache. Ignored by the dense oracle path.
	Kernels *KernelCache
}

// energyObjective is Σ wᵢ³/dᵢ² over x = (t₁..tₙ, d₁..dₙ); the t-part does
// not appear in the objective.
type energyObjective struct {
	w []float64 // task weights (normalized)
	n int
}

func (f *energyObjective) Value(x linalg.Vector) float64 {
	v := 0.0
	for i := 0; i < f.n; i++ {
		d := x[f.n+i]
		v += f.w[i] * f.w[i] * f.w[i] / (d * d)
	}
	return v
}

func (f *energyObjective) Gradient(x, g linalg.Vector) {
	for i := 0; i < f.n; i++ {
		g[i] = 0
	}
	for i := 0; i < f.n; i++ {
		d := x[f.n+i]
		w3 := f.w[i] * f.w[i] * f.w[i]
		g[f.n+i] = -2 * w3 / (d * d * d)
	}
}

func (f *energyObjective) Hessian(x linalg.Vector, h *linalg.Matrix) {
	for i := 0; i < f.n; i++ {
		d := x[f.n+i]
		w3 := f.w[i] * f.w[i] * f.w[i]
		h.Add(f.n+i, f.n+i, 6*w3/(d*d*d*d))
	}
}

func (f *energyObjective) HessianDiag(x, h linalg.Vector) {
	for i := 0; i < f.n; i++ {
		h[i] = 0
	}
	for i := 0; i < f.n; i++ {
		d := x[f.n+i]
		w3 := f.w[i] * f.w[i] * f.w[i]
		h[f.n+i] = 6 * w3 / (d * d * d * d)
	}
}

// SolveContinuousNumeric solves the geometric program on an arbitrary
// execution graph. It is the reference oracle for every closed form in this
// package. Release times (opts.Release) add the residual constraints
// tᵢ − dᵢ ≥ rᵢ; a warm start (opts.Warm) only changes where centering
// begins.
func (p *Problem) SolveContinuousNumeric(smax float64, opts ContinuousOptions) (*Solution, error) {
	if !(smax > 0) {
		return nil, model.ErrBadSMax
	}
	if opts.SMin < 0 || opts.SMin > smax*(1+1e-12) {
		return nil, model.ErrBadRange
	}
	if err := p.CheckFeasibleFrom(smax, opts.Release); err != nil {
		return nil, err
	}
	release := opts.Release
	if release != nil && !hasRelease(release) {
		release = nil
	}
	// Degenerate band: a single admissible speed.
	if opts.SMin > 0 && opts.SMin >= smax*(1-1e-12) {
		speeds := make([]float64, p.G.N())
		for i := range speeds {
			speeds[i] = smax
		}
		m, _ := model.NewContinuous(smax)
		return p.solutionFromSpeedsAt(m, speeds, release, Stats{Algorithm: "continuous-degenerate-band", Exact: true, BoundFactor: 1})
	}
	n := p.G.N()
	cpw, err := p.G.CriticalPathWeight()
	if err != nil {
		return nil, err
	}
	// Normalize: time unit = D, work unit = cpw. Normalized weights wᵢ/cpw,
	// deadline 1, speed cap smax·D/cpw, energies scale by D²/cpw³.
	wn := make([]float64, n)
	for i := 0; i < n; i++ {
		wn[i] = p.G.Weight(i) / cpw
	}
	var rn []float64
	if release != nil {
		rn = make([]float64, n)
		for i := range rn {
			if release[i] > 0 {
				rn[i] = release[i] / p.Deadline
			}
		}
	}
	sCap := smax * p.Deadline / cpw
	if math.IsInf(smax, 1) {
		// Rigorous speed cap for the unconstrained case: in any optimum,
		// wᵢ·sᵢ² ≤ E* ≤ E(all at cpw/D) = Σwⱼ·(cpw/D)², so
		// sᵢ ≤ sqrt(Σwⱼ/wᵢ)·cpw/D. Normalized: sᵢ' ≤ sqrt(Σwⱼ'/wᵢ').
		// A single global cap with 4x headroom keeps the cap rows slack at
		// the true optimum for every task.
		totalN := 0.0
		minW := math.Inf(1)
		for _, w := range wn {
			totalN += w
			if w < minW {
				minW = w
			}
		}
		sCap = 4 * math.Sqrt(totalN/minW)
	}
	// If the deadline is (numerically) tight, return the all-smax solution.
	if !math.IsInf(smax, 1) {
		var dmin float64
		if release == nil {
			dmin, _ = p.MinimalDeadline(smax)
		} else {
			fastest := make([]float64, n)
			for i := range fastest {
				fastest[i] = p.G.Weight(i) / smax
			}
			dmin, _ = p.G.MakespanFrom(fastest, release)
		}
		if dmin >= p.Deadline*(1-1e-9) {
			speeds := make([]float64, n)
			for i := range speeds {
				speeds[i] = smax
			}
			m, _ := model.NewContinuous(smax)
			return p.solutionFromSpeedsAt(m, speeds, release, Stats{Algorithm: "continuous-tight-deadline", Exact: true, BoundFactor: 1})
		}
	}

	// Optional lower speed bound → upper duration bound dᵢ ≤ wᵢ/smin.
	sMinN := opts.SMin * p.Deadline / cpw
	var hi []float64
	if opts.SMin > 0 {
		hi = make([]float64, n)
		for i := 0; i < n; i++ {
			hi[i] = wn[i] / sMinN
		}
	}

	// Constraints over x = (t, d), normalized deadline 1. The structural
	// side — transitive reduction, CSR pattern and its ±1 values, the
	// compiled sparse program — comes from the kernel (cached across
	// requests sharing a graph shape when opts.Kernels is set); only the
	// right-hand side b carries this request's numbers, in the kernel's
	// fixed row order: precedence rows (0), start rows (−rᵢ), deadline
	// rows (1), duration floors (−lo), then duration ceilings (hi).
	var ker *continuousKernel
	if opts.Kernels != nil && !opts.DenseKernel {
		ker = opts.Kernels.kernel(p.G, hi != nil, opts)
	} else {
		ker = compileContinuousKernel(p.G, hi != nil, opts, opts.DenseKernel)
	}
	b := linalg.NewVector(ker.rows)
	r := len(ker.edges) // precedence rows: b = 0
	for i := 0; i < n; i++ {
		if rn != nil {
			b[r] = -rn[i]
		}
		r++
	}
	for i := 0; i < n; i++ {
		b[r] = 1
		r++
	}
	lo := make([]float64, n)
	for i := 0; i < n; i++ {
		lo[i] = wn[i] / sCap
		b[r] = -lo[i]
		r++
	}
	if hi != nil {
		for i := 0; i < n; i++ {
			b[r] = hi[i]
			r++
		}
	}

	// Strictly feasible start. Warm path: durations from the previous
	// speed vector, clamped into the admissible band and shrunk a hair so
	// every constraint is strictly slack — centering then begins next to
	// the optimum. Cold path (and warm fallback): fastest durations lo
	// give makespan M* < 1; inflate durations by μ = λ^(1/3) and finish
	// times by ν = λ^(1/3) (λ = 1/M*), which keeps every constraint
	// strictly slack. Release-dominated paths scale sublinearly in the
	// durations, so both inflations remain valid with rn present.
	x0 := p.warmStartPoint(opts.Warm, wn, lo, hi, rn)
	warmStarted := x0 != nil
	if x0 == nil {
		mstar, err := p.G.MakespanFrom(lo, rn)
		if err != nil {
			return nil, err
		}
		if mstar >= 1 {
			return nil, fmt.Errorf("%w: normalized fastest makespan %.9g ≥ 1", ErrInfeasible, mstar)
		}
		lambda := 1 / mstar
		mu := math.Cbrt(lambda)
		nu := math.Cbrt(lambda)
		d0 := make([]float64, n)
		for i := range d0 {
			d0[i] = mu * lo[i]
			if hi != nil && d0[i] >= hi[i] {
				// Stay strictly inside the duration band; the geometric mean is
				// strictly between lo and hi and only shortens d0, so the path
				// constraints keep their slack.
				d0[i] = math.Sqrt(lo[i] * hi[i])
			}
		}
		pa, err := p.G.AnalyzeFrom(d0, rn, 1)
		if err != nil {
			return nil, err
		}
		x0 = linalg.NewVector(2 * n)
		for i := 0; i < n; i++ {
			x0[i] = nu * pa.EarliestFinish[i]
			x0[n+i] = d0[i]
		}
	}

	tol := opts.Tol
	if tol == 0 {
		tol = 1e-10
	}
	obj := &energyObjective{w: wn, n: n}
	// Request the duality gap (sᵀλ in the primal-dual kernel, m/t in the
	// dense barrier oracle) small relative to the objective scale
	// (normalized energies are O(1)). Warm starts begin next to the
	// optimum, so AutoT0 starts the kernel at a gap matched to the point's
	// own centrality instead of re-walking the whole path from μ₀ = 1 —
	// that is what makes a warm re-solve cheaper than a cold one.
	copts := convex.Options{
		Tol:      tol * math.Max(1, obj.Value(x0)),
		AutoT0:   warmStarted,
		Workers:  opts.Workers,
		Ordering: opts.Ordering,
	}
	var res *convex.Result
	if opts.DenseKernel {
		res, err = convex.Minimize(obj, ker.a.Dense(), b, x0, copts)
	} else {
		res, err = ker.prog.Minimize(obj, b, x0, copts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: continuous solve failed: %w", err)
	}
	speeds := make([]float64, n)
	for i := 0; i < n; i++ {
		d := res.X[n+i]
		s := wn[i] / d // normalized speed
		// De-normalize: s_real = s · cpw / D.
		speeds[i] = s * cpw / p.Deadline
		if !math.IsInf(smax, 1) && speeds[i] > smax {
			speeds[i] = smax // clamp roundoff above the cap
		}
		if opts.SMin > 0 && speeds[i] < opts.SMin {
			speeds[i] = opts.SMin
		}
	}
	m, err := model.NewContinuous(smax)
	if err != nil {
		return nil, err
	}
	sol, err := p.solutionFromSpeedsAt(m, speeds, release, Stats{
		Algorithm:             "continuous-interior-point",
		Newton:                res.Newton,
		Exact:                 true, // up to the numeric gap
		BoundFactor:           1,
		PrecedenceRowsDropped: ker.rowsDropped,
	})
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// warmStartPoint builds a strictly feasible interior-point start from a
// previous speed vector (normalized coordinates). Returns nil when no warm
// data is available or it cannot be made strictly feasible — the caller
// falls back to the cold construction. The returned point never changes the
// optimum, only where centering begins.
func (p *Problem) warmStartPoint(warm *WarmStart, wn, lo, hi, rn []float64) linalg.Vector {
	n := len(wn)
	if warm == nil || len(warm.Speeds) != n {
		return nil
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		s := warm.Speeds[i]
		if !(s > 0) {
			return nil
		}
		// Normalized duration of task i at the previous speed: time unit D.
		d[i] = (p.G.Weight(i) / s) / p.Deadline
		// Clamp strictly inside the duration band, then shrink a hair so
		// path constraints gain slack; the floor keeps the speed cap slack.
		floor := lo[i] * (1 + 1e-9)
		if hi != nil {
			ceil := hi[i] * (1 - 1e-9)
			if floor >= ceil {
				return nil
			}
			if d[i] > ceil {
				d[i] = ceil
			}
		}
		d[i] *= 0.999
		if d[i] < floor {
			d[i] = floor
		}
		if hi != nil && d[i] >= hi[i] {
			return nil
		}
	}
	ms, err := p.G.MakespanFrom(d, rn)
	if err != nil || ms >= 1-1e-12 {
		return nil
	}
	// Inflate finishes by ν > 1 to open strict slack on every precedence
	// and release row while keeping tᵢ ≤ ν·makespan < 1.
	nu := math.Cbrt(1 / ms)
	pa, err := p.G.AnalyzeFrom(d, rn, 1)
	if err != nil {
		return nil
	}
	x0 := linalg.NewVector(2 * n)
	for i := 0; i < n; i++ {
		x0[i] = nu * pa.EarliestFinish[i]
		x0[n+i] = d[i]
	}
	return x0
}

// SolveContinuous runs the routing table (SelectRoute) on the Continuous
// model: the chain and fork closed forms, the tree/SP equivalent-weight
// algebra when smax does not bind, and the interior-point geometric
// program otherwise.
func (p *Problem) SolveContinuous(smax float64, opts ContinuousOptions) (*Solution, error) {
	m, err := model.NewContinuous(smax)
	if err != nil {
		return nil, err
	}
	return p.SolveAuto(m, PlannedOptions{Continuous: opts})
}
