package core

import (
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/platform"
)

// Extension: per-processor speed scaling. The paper reclaims energy with one
// speed *per task*; real chips often expose one DVFS domain *per processor*
// (all tasks mapped there share the speed) or one per chip (SolveUniform).
// Solving this restricted problem exactly quantifies what task-grained
// control buys — the A1 ablation.
//
// With σ_q the speed of processor q and u_q = 1/σ_q, task i's duration is
// wᵢ·u_{proc(i)}, so the feasible set is linear in (t, u) and the energy
//
//	Σ_i wᵢ·σ_{proc(i)}² = Σ_q W_q / u_q²,  W_q = Σ_{i on q} wᵢ,
//
// is convex in u > 0: the same interior-point machinery applies with P
// variables instead of n.

// perProcObjective is Σ_q W_q / u_q² over x = (t₁..tₙ, u₁..u_P).
type perProcObjective struct {
	procWeight []float64 // total task weight per processor (normalized)
	n          int
}

func (f *perProcObjective) Value(x linalg.Vector) float64 {
	v := 0.0
	for q, w := range f.procWeight {
		u := x[f.n+q]
		v += w / (u * u)
	}
	return v
}

func (f *perProcObjective) Gradient(x, g linalg.Vector) {
	for i := range g {
		g[i] = 0
	}
	for q, w := range f.procWeight {
		u := x[f.n+q]
		g[f.n+q] = -2 * w / (u * u * u)
	}
}

func (f *perProcObjective) Hessian(x linalg.Vector, h *linalg.Matrix) {
	for q, w := range f.procWeight {
		u := x[f.n+q]
		h.Add(f.n+q, f.n+q, 6*w/(u*u*u*u))
	}
}

func (f *perProcObjective) HessianDiag(x, h linalg.Vector) {
	for i := range h {
		h[i] = 0
	}
	for q, w := range f.procWeight {
		u := x[f.n+q]
		h[f.n+q] = 6 * w / (u * u * u * u)
	}
}

// SolvePerProcessorContinuous finds the optimal single continuous speed per
// processor for the given mapping (which must be the mapping that produced
// p.G). The result is reported as a standard per-task Solution whose tasks
// on one processor share a speed.
func (p *Problem) SolvePerProcessorContinuous(m *platform.Mapping, smax float64, opts ContinuousOptions) (*Solution, error) {
	if !(smax > 0) {
		return nil, model.ErrBadSMax
	}
	if err := m.Validate(p.G); err != nil {
		return nil, err
	}
	if err := p.CheckFeasible(smax); err != nil {
		return nil, err
	}
	n := p.G.N()
	np := m.NumProcs()
	procOf := m.ProcOf()

	cpw, err := p.G.CriticalPathWeight()
	if err != nil {
		return nil, err
	}
	// Normalization as in SolveContinuousNumeric: time unit D, work unit cpw.
	wn := make([]float64, n)
	for i := 0; i < n; i++ {
		wn[i] = p.G.Weight(i) / cpw
	}
	procW := make([]float64, np)
	for i := 0; i < n; i++ {
		procW[procOf[i][0]] += wn[i]
	}
	// Skip processors with no tasks: pin their u to 1 via a dummy bound by
	// giving them zero weight (objective ignores them) and box constraints.
	sCapN := smax * p.Deadline / cpw
	uLo := 1 / sCapN // u ≥ 1/smax (normalized)
	if math.IsInf(smax, 1) {
		// Bound speeds as in the per-task case.
		totalN := 0.0
		minW := math.Inf(1)
		for _, w := range wn {
			totalN += w
			if w < minW {
				minW = w
			}
		}
		uLo = 1 / (4 * math.Sqrt(totalN/minW))
	}

	// Feasible-start scaling, needed below to box idle processors: fastest
	// durations lo give normalized makespan mstar < 1; durations and finish
	// times are inflated by μ = ν = (1/mstar)^(1/3).
	lo := make([]float64, n)
	for i := range lo {
		lo[i] = wn[i] * uLo
	}
	mstar, err := p.G.Makespan(lo)
	if err != nil {
		return nil, err
	}
	if mstar >= 1 {
		return nil, fmt.Errorf("%w: normalized fastest makespan %.9g ≥ 1", ErrInfeasible, mstar)
	}
	lambda := 1 / mstar
	mu := math.Cbrt(lambda)
	nu := math.Cbrt(lambda)

	// Constraints over x = (t, u): edges, start, deadline, uLo ≤ u ≤ uHi.
	// The upper bound exists so idle processors' u (absent from both the
	// objective and the scheduling constraints) cannot drift unboundedly
	// inside the interior point; for busy processors it is implied by the deadline
	// and therefore harmless.
	uHi := make([]float64, np)
	wmax := make([]float64, np)
	for i := 0; i < n; i++ {
		q := procOf[i][0]
		if wn[i] > wmax[q] {
			wmax[q] = wn[i]
		}
	}
	edges := p.G.Edges()
	rows := len(edges) + n + n + 2*np
	ab := linalg.NewCSRBuilder(n + np)
	b := linalg.NewVector(rows)
	r := 0
	for _, e := range edges { // t_u + w_v·u_{p(v)} − t_v ≤ 0
		ab.Set(e[0], 1)
		ab.Set(n+procOf[e[1]][0], wn[e[1]])
		ab.Set(e[1], -1)
		ab.EndRow()
		r++
	}
	for i := 0; i < n; i++ { // w_i·u_{p(i)} − t_i ≤ 0
		ab.Set(n+procOf[i][0], wn[i])
		ab.Set(i, -1)
		ab.EndRow()
		r++
	}
	for i := 0; i < n; i++ { // t_i ≤ 1
		ab.Set(i, 1)
		ab.EndRow()
		b[r] = 1
		r++
	}
	for q := 0; q < np; q++ { // −u_q ≤ −uLo
		ab.Set(n+q, -1)
		ab.EndRow()
		b[r] = -uLo
		r++
	}
	for q := 0; q < np; q++ { // u_q ≤ uHi_q
		if wmax[q] > 0 {
			uHi[q] = 1 / wmax[q] // duration w·u ≤ 1 forces this anyway
		} else {
			uHi[q] = 2 * mu * uLo // idle processor: value irrelevant, boxed around x0
		}
		ab.Set(n+q, 1)
		ab.EndRow()
		b[r] = uHi[q]
		r++
	}
	a := ab.Build()

	// Strictly feasible start: all processors slightly slower than smax,
	// finish times stretched, exactly as in the per-task solver.
	d0 := make([]float64, n)
	for i := range d0 {
		d0[i] = mu * lo[i]
	}
	pa, err := p.G.Analyze(d0, 1)
	if err != nil {
		return nil, err
	}
	x0 := linalg.NewVector(n + np)
	for i := 0; i < n; i++ {
		x0[i] = nu * pa.EarliestFinish[i]
	}
	for q := 0; q < np; q++ {
		x0[n+q] = mu * uLo
	}

	tol := opts.Tol
	if tol == 0 {
		tol = 1e-10
	}
	obj := &perProcObjective{procWeight: procW, n: n}
	copts := convex.Options{Tol: tol * math.Max(1, obj.Value(x0))}
	var res *convex.Result
	if opts.DenseKernel {
		res, err = convex.Minimize(obj, a.Dense(), b, x0, copts)
	} else {
		res, err = convex.SparseMinimize(obj, a, b, x0, copts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: per-processor solve failed: %w", err)
	}
	speeds := make([]float64, n)
	for i := 0; i < n; i++ {
		u := res.X[n+procOf[i][0]]
		s := (1 / u) * cpw / p.Deadline
		if !math.IsInf(smax, 1) && s > smax {
			s = smax
		}
		speeds[i] = s
	}
	mm, err := model.NewContinuous(smax)
	if err != nil {
		return nil, err
	}
	return p.solutionFromSpeeds(mm, speeds, Stats{
		Algorithm:   "per-processor-continuous",
		Newton:      res.Newton,
		Exact:       true,
		BoundFactor: 1,
	})
}
