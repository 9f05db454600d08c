package core

import (
	"errors"
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
// quantities are O(1) regardless of instance scale. The structure of the
// program does not depend on the power exponent (Aupy, Benoit, Dufossé,
// Robert, arXiv:1204.0939): under power s^α the energy is Σ wᵢ^α/dᵢ^(α−1)
// over the same rows, so solveGP below is the one front end of every
// numeric continuous solver — SolveContinuousNumeric and the generalized-α
// extension (alpha.go) — and the per-processor program (perproc.go) runs
// on its parts: normalize, coldStart, energyObjective and minimizeGP.

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
	// Ordering forces the sparse kernel's fill-reducing ordering; the
	// zero value picks the cheaper of RCM and nested dissection.
	Ordering convex.Ordering
	// Kernels, when non-nil, caches the structure-determined compilation
	// of the geometric program (transitive reduction, CSR constraint
	// matrix, fill-reducing ordering, symbolic factorization) keyed by
	// the graph's structural fingerprint. Requests whose graphs share a
	// shape then skip the symbolic work entirely and pay only the numeric
	// solve; see KernelCache.
	Kernels *KernelCache
}

// energyObjective is the energy Σ aᵢ/dᵢ^(α−1) over x = (t₁..tₙ, d₁..d_k);
// the completion times t do not appear in it. In the per-task program
// aᵢ = wᵢ^α and dᵢ is the duration of task i, run at speed wᵢ/dᵢ; at the
// paper's α = 3 every power is a plain product — Σ wᵢ³/dᵢ². The
// per-processor program (perproc.go) is the case α = 3, a_q = W_q,
// d_q = u_q.
type energyObjective struct {
	a     []float64
	n     int // completion times ahead of the d-part
	alpha float64
}

func newEnergyObjective(w []float64, alpha float64) *energyObjective {
	a := make([]float64, len(w))
	for i, wi := range w {
		if alpha == 3 {
			a[i] = wi * wi * wi
		} else {
			a[i] = math.Pow(wi, alpha)
		}
	}
	return &energyObjective{a: a, n: len(w), alpha: alpha}
}

// pow returns d^k for the exponents k = α−1, α, α+1 of the objective and
// its derivatives: d², d³, d⁴ as plain products at α = 3.
func (f *energyObjective) pow(d, k float64) float64 {
	if f.alpha != 3 {
		return math.Pow(d, k)
	}
	switch k {
	case 2:
		return d * d
	case 3:
		return d * d * d
	}
	return d * d * d * d
}

func (f *energyObjective) Value(x linalg.Vector) float64 {
	v := 0.0
	for i, a := range f.a {
		v += a / f.pow(x[f.n+i], f.alpha-1)
	}
	return v
}

func (f *energyObjective) Gradient(x, g linalg.Vector) {
	for i := 0; i < f.n; i++ {
		g[i] = 0
	}
	for i, a := range f.a {
		g[f.n+i] = -(f.alpha - 1) * a / f.pow(x[f.n+i], f.alpha)
	}
}

func (f *energyObjective) HessianDiag(x, h linalg.Vector) {
	for i := 0; i < f.n; i++ {
		h[i] = 0
	}
	for i, a := range f.a {
		h[f.n+i] = f.alpha * (f.alpha - 1) * a / f.pow(x[f.n+i], f.alpha+1)
	}
}

// SolveContinuousNumeric solves the geometric program on an arbitrary
// execution graph. It is the reference oracle for every closed form in this
// package. Release times (opts.Release) add the residual constraints
// tᵢ − dᵢ ≥ rᵢ; a warm start (opts.Warm) only changes where centering
// begins.
func (p *Problem) SolveContinuousNumeric(smax float64, opts ContinuousOptions) (*Solution, error) {
	speeds, release, st, err := p.solveGP(smax, 3, opts)
	if err != nil {
		return nil, err
	}
	m, err := model.NewContinuous(smax)
	if err != nil {
		return nil, err
	}
	return p.solutionFromSpeedsAt(m, speeds, release, st)
}

// solveGP solves the geometric program under power s^alpha and returns
// the speeds, the release vector they honour (nil when no task has a
// positive release) and the solve's Stats. A deadline the fastest
// schedule only just meets, and a speed band of one admissible speed,
// are answered without the interior point.
func (p *Problem) solveGP(smax, alpha float64, opts ContinuousOptions) ([]float64, []float64, Stats, error) {
	if !(smax > 0) {
		return nil, nil, Stats{}, model.ErrBadSMax
	}
	if opts.SMin < 0 || opts.SMin > smax*(1+1e-12) {
		return nil, nil, Stats{}, model.ErrBadRange
	}
	if err := p.CheckFeasibleFrom(smax, opts.Release); err != nil {
		return nil, nil, Stats{}, err
	}
	release := opts.Release
	if release != nil && !hasRelease(release) {
		release = nil
	}
	n := p.G.N()
	allMax := func(algorithm string) ([]float64, []float64, Stats, error) {
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = smax
		}
		return speeds, release, Stats{Algorithm: algorithm, Exact: true, BoundFactor: 1}, nil
	}
	// Degenerate band: a single admissible speed.
	if opts.SMin > 0 && opts.SMin >= smax*(1-1e-12) {
		return allMax("continuous-degenerate-band")
	}
	wn, cpw, sCap, err := p.normalize(smax, alpha)
	if err != nil {
		return nil, nil, Stats{}, err
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
			return allMax("continuous-tight-deadline")
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
	if opts.Kernels != nil {
		ker = opts.Kernels.kernel(p.G, hi != nil, opts)
	} else {
		ker = compileContinuousKernel(p.G, hi != nil, opts)
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

	// Strictly feasible start: from the previous speeds when a usable warm
	// start is given, otherwise the cold construction. When rounding puts
	// it on the boundary, the kernel rejects it and marginStart rebuilds
	// it from the same durations.
	x0 := p.warmStartPoint(opts.Warm, lo, hi, rn)
	warm := x0 != nil
	if !warm {
		if x0, _, err = p.coldStart(lo, hi, rn); err != nil {
			return nil, nil, Stats{}, err
		}
	}
	obj := newEnergyObjective(wn, alpha)
	res, err := minimizeGP(obj, ker.a, ker.prog, b, x0, warm, opts)
	if errors.Is(err, convex.ErrInfeasibleStart) {
		if x0, err = p.marginStart(x0[n:], rn); err == nil {
			res, err = minimizeGP(obj, ker.a, ker.prog, b, x0, warm, opts)
		}
	}
	if err != nil {
		return nil, nil, Stats{}, fmt.Errorf("core: continuous solve failed: %w", err)
	}
	// De-normalize the certificate: E = cpw^α / D^(α−1) · Σ wnᵢ^α/dᵢ^(α−1).
	lb := ker.dualBound(obj, b, res.Lambda, lo, hi) * math.Pow(cpw, alpha) / math.Pow(p.Deadline, alpha-1)
	if !(lb > 0) {
		lb = 0
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
	return speeds, release, Stats{
		Algorithm:             "continuous-interior-point",
		Newton:                res.Newton,
		Exact:                 true, // up to the numeric gap
		BoundFactor:           1,
		PrecedenceRowsDropped: ker.rowsDropped,
		LowerBound:            lb,
	}, nil
}

// dualBound returns the Lagrangian dual of the normalized program at
// λ⁺ = max(λ, 0), which by weak duality bounds its optimum from below
// whatever λ is. Every feasible point lies in the box t ∈ [0, 1],
// d ∈ [lo, min(hi, 1)], so with c = Aᵀλ⁺ the dual is
//
//	−λ⁺ᵀb + Σᵢ min(0, c_tᵢ) + Σᵢ min over the box of aᵢ·d^(1−α) + c_dᵢ·d,
//
// whose d-term is the stationary point ((α−1)·aᵢ/c_dᵢ)^(1/α) clamped into
// the box, or the box's top when c_dᵢ ≤ 0. At the optimum c_t = 0; the
// kernel's exit leaves a residual there, whose negative part would cost
// the bound about 2e-9 on degenerate programs (pipelines). So first, in
// topological order, each negative c_tᵤ is pushed down u's first
// precedence row u→v. Raising λ_uv by −c_tᵤ is free (the row's b is 0):
// it zeroes c_tᵤ, raises c_dᵥ and lowers c_tᵥ, where the deficit cancels
// against v's surplus or moves on. λ is clamped in place.
func (k *continuousKernel) dualBound(f *energyObjective, b, lam linalg.Vector, lo, hi []float64) float64 {
	for i, l := range lam {
		lam[i] = math.Max(l, 0)
	}
	n := f.n
	c := linalg.NewVector(2 * n)
	k.a.AddMulVecT(lam, c)
	for _, u := range k.topo {
		if v := k.down[u]; v >= 0 && c[u] < 0 {
			c[n+v] -= c[u]
			c[v] += c[u]
			c[u] = 0
		}
	}
	lb := -lam.Dot(b)
	for i, a := range f.a {
		lb += math.Min(0, c[i])
		top := 1.0
		if hi != nil {
			top = math.Min(top, hi[i])
		}
		d := top
		if cd := c[n+i]; cd > 0 {
			d = math.Max(lo[i], math.Min(top, math.Pow((f.alpha-1)*a/cd, 1/f.alpha)))
		}
		lb += a/f.pow(d, f.alpha-1) + c[n+i]*d
	}
	return lb
}

// normalize rescales the instance so every quantity of the program is
// O(1) — time unit D, work unit the critical-path weight cpw — and returns
// the normalized weights wᵢ/cpw, cpw, and the normalized speed cap
// smax·D/cpw. For smax = ∞ it returns a cap no optimum reaches under power
// s^alpha: in any optimum wᵢ·sᵢ^(α−1) ≤ E* ≤ E(all at cpw/D) =
// Σwⱼ·(cpw/D)^(α−1), so sᵢ ≤ (Σwⱼ/wᵢ)^(1/(α−1))·cpw/D, and one global cap
// with 4× headroom keeps the cap rows slack at the optimum for every task.
func (p *Problem) normalize(smax, alpha float64) ([]float64, float64, float64, error) {
	cpw, err := p.G.CriticalPathWeight()
	if err != nil {
		return nil, 0, 0, err
	}
	wn := make([]float64, p.G.N())
	for i := range wn {
		wn[i] = p.G.Weight(i) / cpw
	}
	sCap := smax * p.Deadline / cpw
	if math.IsInf(smax, 1) {
		totalN := 0.0
		minW := math.Inf(1)
		for _, w := range wn {
			totalN += w
			if w < minW {
				minW = w
			}
		}
		if alpha == 3 {
			sCap = 4 * math.Sqrt(totalN/minW)
		} else {
			sCap = 4 * math.Pow(totalN/minW, 1/(alpha-1))
		}
	}
	return wn, cpw, sCap, nil
}

// minimizeGP runs the primal-dual interior point on the normalized program
// A·x ≤ b from the strictly feasible x0: prog, or a program compiled here
// from a when prog is nil. The duality gap sᵀλ is requested small
// relative to the objective scale at x0 (normalized energies are O(1)).
// Warm starts begin next to the optimum, so AutoT0 starts the kernel at a
// gap matched to the point's own centrality instead of re-walking the
// whole path from μ₀ = 1 — that is what makes a warm re-solve cheaper than
// a cold one.
func minimizeGP(obj *energyObjective, a *linalg.CSR, prog *convex.SparseProgram, b, x0 linalg.Vector, warm bool, opts ContinuousOptions) (*convex.Result, error) {
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-10
	}
	copts := convex.Options{
		Tol:      tol * math.Max(1, obj.Value(x0)),
		AutoT0:   warm,
		Ordering: opts.Ordering,
	}
	if prog == nil {
		prog = convex.CompileSparse(a, len(x0), copts)
	}
	return prog.Minimize(obj, b, x0, copts)
}

// coldStart is the interior start without warm data. The fastest
// durations lo give normalized makespan M* < 1; inflating durations and
// finish times by the same μ = (1/M*)^(1/3) keeps every constraint
// strictly slack, and release-dominated paths scale sublinearly in the
// durations, so the inflation stays valid with rn present. Durations stay
// strictly below hi. It returns the (t, d) start and μ.
func (p *Problem) coldStart(lo, hi, rn []float64) (linalg.Vector, float64, error) {
	mstar, err := p.G.MakespanFrom(lo, rn)
	if err != nil {
		return nil, 0, err
	}
	if mstar >= 1 {
		return nil, 0, fmt.Errorf("%w: normalized fastest makespan %.9g ≥ 1", ErrInfeasible, mstar)
	}
	mu := math.Cbrt(1 / mstar)
	d0 := make([]float64, len(lo))
	for i := range d0 {
		d0[i] = mu * lo[i]
		if hi != nil && d0[i] >= hi[i] {
			// Stay strictly inside the duration band; the geometric mean is
			// strictly between lo and hi and only shortens d0, so the path
			// constraints keep their slack.
			d0[i] = math.Sqrt(lo[i] * hi[i])
		}
	}
	x0, err := p.startPoint(d0, rn, mstar)
	return x0, mu, err
}

// startPoint assembles the interior start (t, d) from durations d: finish
// times are the earliest ones under d and rn, stretched by ν = (1/m)^(1/3)
// > 1, which opens strict slack on every precedence and release row. The
// caller picks m < 1 so that ν·makespan(d) < 1: the makespan of d itself
// (warm start), or that of the durations d inflates by ν (cold start).
func (p *Problem) startPoint(d, rn []float64, m float64) (linalg.Vector, error) {
	nu := math.Cbrt(1 / m)
	pa, err := p.G.AnalyzeFrom(d, rn, 1)
	if err != nil {
		return nil, err
	}
	n := len(d)
	x0 := linalg.NewVector(2 * n)
	for i := 0; i < n; i++ {
		x0[i] = nu * pa.EarliestFinish[i]
		x0[n+i] = d[i]
	}
	return x0, nil
}

// marginStart rebuilds the interior start from durations d when the
// scaled one rounds out of the interior. startPoint opens a precedence
// row u→v by only (ν−1)·d_v, and with a deadline 1e-9 above the minimum
// (ν−1 ≈ 3e-10) and a light task (d_v ≈ 5e-8) that is below the
// rounding of completion times near 1. Here every task's finish time
// instead carries an additive margin δ per hop — the earliest finish
// times under durations d + δ — with δ an even share of the deadline
// room 1 − makespan(d) over the longest path's tasks, so every
// precedence, start and deadline row keeps slack δ.
func (p *Problem) marginStart(d, rn []float64) (linalg.Vector, error) {
	n := len(d)
	ms, err := p.G.MakespanFrom(d, rn)
	if err != nil {
		return nil, err
	}
	padded := make([]float64, n)
	for i := range padded {
		padded[i] = 1
	}
	hops, err := p.G.MakespanFrom(padded, nil)
	if err != nil {
		return nil, err
	}
	delta := (1 - ms) / (hops + 1)
	for i := range padded {
		padded[i] = d[i] + delta
	}
	pa, err := p.G.AnalyzeFrom(padded, rn, 1)
	if err != nil {
		return nil, err
	}
	x0 := linalg.NewVector(2 * n)
	copy(x0, pa.EarliestFinish)
	copy(x0[n:], d)
	return x0, nil
}

// warmStartPoint builds a strictly feasible interior-point start from a
// previous speed vector (normalized coordinates): durations at the previous
// speeds, clamped into the admissible band and shrunk a hair so every
// constraint is strictly slack — centering then begins next to the
// optimum. Returns nil when no warm data is available or it cannot be made
// strictly feasible — the caller falls back to the cold construction. The
// returned point never changes the optimum, only where centering begins.
func (p *Problem) warmStartPoint(warm *WarmStart, lo, hi, rn []float64) linalg.Vector {
	n := len(lo)
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
	x0, err := p.startPoint(d, rn, ms)
	if err != nil {
		return nil
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
