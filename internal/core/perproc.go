package core

import (
	"fmt"
	"math"

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
// is convex in u > 0: the geometric program of continuous.go with P
// variables instead of n, and its objective with W_q in place of wᵢ³.
// Only the (t, u) rows below are this extension's own; the normalization,
// the cold start, the objective and the solve are the per-task program's
// (normalize, coldStart, energyObjective, minimizeGP).

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
	wn, cpw, sCap, err := p.normalize(smax, 3)
	if err != nil {
		return nil, err
	}
	procW := make([]float64, np)
	for i := 0; i < n; i++ {
		procW[procOf[i][0]] += wn[i]
	}
	uLo := 1 / sCap // u ≥ 1/smax (normalized)

	// Strictly feasible start: the per-task cold start at the fastest
	// durations wᵢ·uLo, every processor slowed by the same factor μ > 1.
	lo := make([]float64, n)
	for i := range lo {
		lo[i] = wn[i] * uLo
	}
	td, mu, err := p.coldStart(lo, nil, nil)
	if err != nil {
		return nil, err
	}
	x0 := linalg.NewVector(n + np)
	copy(x0, td[:n])
	for q := 0; q < np; q++ {
		x0[n+q] = mu * uLo
	}

	// Constraints over x = (t, u): edges, start, deadline, uLo ≤ u ≤ uHi.
	// The upper bound exists so idle processors' u (absent from both the
	// objective and the scheduling constraints) cannot drift unboundedly
	// inside the interior point; for busy processors it is implied by the deadline
	// and therefore harmless.
	wmax := make([]float64, np)
	for i := 0; i < n; i++ {
		q := procOf[i][0]
		if wn[i] > wmax[q] {
			wmax[q] = wn[i]
		}
	}
	edges := p.G.Edges()
	ab := linalg.NewCSRBuilder(n + np)
	b := linalg.NewVector(len(edges) + n + n + 2*np)
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
			b[r] = 1 / wmax[q] // duration w·u ≤ 1 forces this anyway
		} else {
			b[r] = 2 * mu * uLo // idle processor: value irrelevant, boxed around x0
		}
		ab.Set(n+q, 1)
		ab.EndRow()
		r++
	}

	obj := &energyObjective{a: procW, n: n, alpha: 3} // Σ_q W_q/u_q²
	res, err := minimizeGP(obj, ab.Build(), nil, b, x0, false, opts)
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
