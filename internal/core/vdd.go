package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/sched"
)

// Theorem 3: with the Vdd-Hopping model, MinEnergy(G, D) is a linear
// program. Variables: α(i,j) ≥ 0, the time task i spends at mode sⱼ, and
// tᵢ ≥ 0, the completion time of task i.
//
//	minimize   Σᵢⱼ sⱼ³ · α(i,j)                     (energy)
//	subject to Σⱼ sⱼ · α(i,j)  =  wᵢ                (work completion)
//	           tᵤ + Σⱼ α(v,j) − t_v ≤ 0             for every edge (u,v)
//	           Σⱼ α(i,j) − tᵢ ≤ −rᵢ                 (start ≥ release rᵢ)
//	           tᵢ ≤ D

// VddOptions tunes the Vdd-Hopping solvers.
type VddOptions struct {
	// Release gives each task an earliest permitted start (residual
	// re-solves of an executing schedule); nil means zeros.
	Release []float64
}

// SolveVddHopping solves the LP exactly and extracts per-task speed
// profiles. The returned solution is optimal for the Vdd-Hopping model.
func (p *Problem) SolveVddHopping(m model.Model) (*Solution, error) {
	return p.SolveVddHoppingOpts(m, VddOptions{})
}

// SolveVddHoppingOpts is SolveVddHopping with residual release times. The
// result is the exact optimum of the release-constrained program.
func (p *Problem) SolveVddHoppingOpts(m model.Model, opts VddOptions) (*Solution, error) {
	if m.Kind != model.VddHopping {
		return nil, fmt.Errorf("core: SolveVddHopping needs a Vdd-Hopping model, got %s", m.Kind)
	}
	if err := p.CheckFeasibleFrom(m.SMax, opts.Release); err != nil {
		return nil, err
	}
	release := opts.Release
	if !hasRelease(release) {
		release = nil
	}
	res, err := lp.Solve(p.vddProgram(m, release), lp.Options{})
	if err != nil {
		return nil, err
	}
	switch res.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("%w: Vdd-Hopping LP infeasible", ErrInfeasible)
	default:
		return nil, fmt.Errorf("core: Vdd-Hopping LP ended with status %s", res.Status)
	}

	// Extract profiles, fastest mode first so precedence-critical work
	// happens early within each task's window (ordering inside a task
	// changes neither energy nor feasibility).
	n, nm := p.G.N(), m.NumModes()
	profiles := make([]sched.Profile, n)
	for i := range profiles {
		var prof sched.Profile
		for j := nm - 1; j >= 0; j-- {
			if d := res.X[i*nm+j]; d > 1e-12 {
				prof = append(prof, sched.Segment{Speed: m.Modes[j], Duration: d})
			}
		}
		// Guard against tiny work deficits from LP roundoff: rescale the
		// profile so the executed work matches wᵢ exactly.
		work := prof.Work()
		w := p.G.Weight(i)
		if work <= 0 {
			return nil, fmt.Errorf("core: task %d received no execution time in LP solution", i)
		}
		if f := w / work; math.Abs(f-1) > 1e-15 {
			for k := range prof {
				prof[k].Duration *= f
			}
		}
		profiles[i] = prof
	}
	s, err := sched.FromProfilesAt(p.G, profiles, release)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Model:    m,
		Schedule: s,
		Energy:   s.Energy,
		Stats:    Stats{Algorithm: "vdd-lp", Pivots: res.Pivots, Exact: true, BoundFactor: 1},
	}, nil
}

// vddProgram assembles the Theorem 3 program with release times (nil for
// none). Variable α(i,j) is column i·|modes| + j, and tᵢ follows all of
// them. It leaves out the rows the others imply, which changes neither the
// feasible set nor the optimum: a start row where tᵤ ≥ 0 and the row of an
// edge (u,v) already give t_v − Σⱼ α(v,j) ≥ 0, and a deadline row where
// tᵢ ≤ t_v ≤ … ≤ t_sink ≤ D already bounds tᵢ.
func (p *Problem) vddProgram(m model.Model, release []float64) *lp.Problem {
	n, nm := p.G.N(), m.NumModes()
	nvar := n*nm + n
	tIdx := func(i int) int { return n*nm + i }
	c := make([]float64, nvar)
	for i := 0; i < n; i++ {
		for j, s := range m.Modes {
			c[i*nm+j] = model.Power(s)
		}
	}
	prob := lp.NewProblem(c)
	row := make([]float64, nvar) // AddConstraint copies it; cleared after each row
	add := func(rel lp.Rel, rhs float64) {
		prob.AddConstraint(row, rel, rhs)
		clear(row)
	}
	// Work completion.
	for i := 0; i < n; i++ {
		copy(row[i*nm:], m.Modes)
		add(lp.EQ, p.G.Weight(i))
	}
	// Precedence.
	for _, e := range p.G.Edges() {
		row[tIdx(e[0])] = 1
		for j := range nm {
			row[e[1]*nm+j] = 1
		}
		row[tIdx(e[1])] = -1
		add(lp.LE, 0)
	}
	// Start ≥ release on sources and released tasks.
	for i := 0; i < n; i++ {
		r := 0.0
		if release != nil {
			r = release[i]
		}
		if len(p.G.Pred(i)) > 0 && r <= 0 {
			continue
		}
		for j := range nm {
			row[i*nm+j] = 1
		}
		row[tIdx(i)] = -1
		add(lp.LE, -r)
	}
	// Deadline on sinks.
	for _, i := range p.G.Sinks() {
		row[tIdx(i)] = 1
		add(lp.LE, p.Deadline)
	}
	return prob
}

// errInteriorRelease marks a chain whose release times sit past its head:
// the chain's closed form cannot express them, the linear program can.
var errInteriorRelease = errors.New("core: a release time past the chain's head")

// SolveVddChain solves a Vdd-Hopping chain in closed form. The chain runs
// back to back from its head's release r to D, so with L = D − r and
// s* = W/L every task runs for wᵢ/s*, split between the two modes that
// bracket s*, or at the slowest mode throughout when s* is below it. That
// is optimal: the least energy of w work in time d is the perspective
// d·h(w/d) of h, the piecewise-linear interpolation of s³ over the modes,
// and Jensen's inequality gives Σᵢ dᵢ·h(wᵢ/dᵢ) ≥ L·h(W/L) whenever
// Σᵢ dᵢ ≤ L. It fails with errInteriorRelease when a task other than the
// head has a positive release.
func (p *Problem) SolveVddChain(m model.Model, opts VddOptions) (*Solution, error) {
	if m.Kind != model.VddHopping {
		return nil, fmt.Errorf("core: SolveVddChain needs a Vdd-Hopping model, got %s", m.Kind)
	}
	order, ok := p.G.IsChain()
	if !ok {
		return nil, fmt.Errorf("core: graph is not a chain")
	}
	release := opts.Release
	if !hasRelease(release) {
		release = nil
	}
	head := 0.0
	if release != nil {
		head = release[order[0]]
		for _, t := range order[1:] {
			if release[t] > 0 {
				return nil, errInteriorRelease
			}
		}
	}
	if err := p.CheckFeasibleFrom(m.SMax, release); err != nil {
		return nil, err
	}
	sStar := p.G.TotalWeight() / (p.Deadline - head)
	profiles := make([]sched.Profile, p.G.N())
	for i := range profiles {
		prof, err := twoModeProfile(m, p.G.Weight(i), sStar)
		if err != nil {
			return nil, err
		}
		profiles[i] = prof
	}
	s, err := sched.FromProfilesAt(p.G, profiles, release)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Model:    m,
		Schedule: s,
		Energy:   s.Energy,
		Stats:    Stats{Algorithm: "vdd-chain-closed-form", Exact: true, BoundFactor: 1},
	}, nil
}

// twoModeProfile does w units of work in w/s* time at the two modes that
// bracket s* (the Ishihara–Yasuura mix, the cheapest way to do so), or at
// the slowest mode throughout when s* is below it: running faster than
// necessary there only shortens the task.
func twoModeProfile(m model.Model, w, sStar float64) (sched.Profile, error) {
	if sStar < m.SMin {
		return sched.ConstantProfile(w, m.SMin), nil
	}
	lo, hi, err := m.Bracket(sStar)
	if err != nil {
		return nil, err
	}
	if hi-lo < 1e-12*hi { // s* is (numerically) a mode
		return sched.ConstantProfile(w, hi), nil
	}
	// Time x at hi, d−x at lo with lo·(d−x) + hi·x = w.
	d := w / sStar
	x := (w - lo*d) / (hi - lo)
	if x <= 0 { // s* is a rounding error above lo: no time at hi
		return sched.ConstantProfile(w, lo), nil
	}
	return sched.Profile{{Speed: hi, Duration: x}, {Speed: lo, Duration: d - x}}, nil
}

// SolveVddTwoMode is the constructive upper bound used to cross-check the
// LP: solve the Continuous model with smax = top mode, then emulate each
// continuous speed s* by its two bracketing modes within the same duration
// (the Ishihara–Yasuura two-voltage argument: that mix is the cheapest way
// to do w units of work in exactly w/s* time). It is optimal per-task given
// the continuous durations, hence E_vdd-lp ≤ E_two-mode always, with
// equality whenever the continuous durations happen to be Vdd-optimal.
func (p *Problem) SolveVddTwoMode(m model.Model, opts ContinuousOptions) (*Solution, error) {
	if m.Kind != model.VddHopping {
		return nil, fmt.Errorf("core: SolveVddTwoMode needs a Vdd-Hopping model, got %s", m.Kind)
	}
	cont, err := p.SolveContinuous(m.SMax, opts)
	if err != nil {
		return nil, err
	}
	speeds, err := cont.Speeds()
	if err != nil {
		return nil, err
	}
	profiles := make([]sched.Profile, p.G.N())
	for i, sStar := range speeds {
		if profiles[i], err = twoModeProfile(m, p.G.Weight(i), sStar); err != nil {
			return nil, err
		}
	}
	s, err := sched.FromProfiles(p.G, profiles)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Model:    m,
		Schedule: s,
		Energy:   s.Energy,
		Stats:    Stats{Algorithm: "vdd-two-mode", Exact: false, BoundFactor: 1},
	}, nil
}
