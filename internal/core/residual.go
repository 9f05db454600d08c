package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/sched"
)

// Residual re-solving: when a schedule is already executing, completed tasks
// freeze at their actual finish times and the remaining tasks form a residual
// MinEnergy instance whose only new ingredient is a per-task release time —
// the latest frozen-predecessor finish. This file carries the shared residual
// machinery: the WarmStart seed every solver accepts, release-aware
// feasibility, and release-aware solution packaging. The per-solver
// retrofits live next to each solver (continuous, vdd, discrete,
// incremental).

// WarmStart seeds a solver with the previous solution of a closely related
// instance (typically: the same residual graph before the latest completion
// event deviated). Warm starts never change what a solver returns — exact
// solvers stay exact, approximations keep their bound — they only shrink the
// work: the interior point starts centering from the previous speed vector,
// branch-and-bound opens with the previous assignment as incumbent, and the
// Pareto DP prunes against the previous energy when it is below the greedy
// heuristic's. The Vdd-Hopping solvers start cold. Stale or infeasible warm
// data is detected and ignored.
type WarmStart struct {
	// Speeds is the previous constant speed per task (Continuous, Discrete,
	// Incremental solutions).
	Speeds []float64
	// Profiles is the previous per-task speed profile (Vdd-Hopping
	// solutions, whose tasks hop between modes): no solver reads it, and
	// the planner replays clean components from it. When set it takes
	// precedence over Speeds.
	Profiles []sched.Profile
}

// hasRelease reports whether any task has a positive release time.
func hasRelease(release []float64) bool {
	for _, r := range release {
		if r > 0 {
			return true
		}
	}
	return false
}

// checkRelease validates a release vector against the problem.
func (p *Problem) checkRelease(release []float64) error {
	if release == nil {
		return nil
	}
	if len(release) != p.G.N() {
		return fmt.Errorf("core: %d release times for %d tasks", len(release), p.G.N())
	}
	for i, r := range release {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("core: task %d has invalid release time %v", i, r)
		}
		if r >= p.Deadline {
			return fmt.Errorf("%w: task %d releases at %.9g ≥ deadline %.9g", ErrInfeasible, i, r, p.Deadline)
		}
	}
	return nil
}

// CheckFeasibleFrom verifies the residual instance admits a schedule: every
// task run at smax, started no earlier than its release, finishes by D.
func (p *Problem) CheckFeasibleFrom(smax float64, release []float64) error {
	if err := p.checkRelease(release); err != nil {
		return err
	}
	if release == nil {
		return p.CheckFeasible(smax)
	}
	if !(smax > 0) {
		return model.ErrBadSMax
	}
	durations := make([]float64, p.G.N())
	for i := range durations {
		if math.IsInf(smax, 1) {
			durations[i] = 0
		} else {
			durations[i] = p.G.Weight(i) / smax
		}
	}
	ms, err := p.G.MakespanFrom(durations, release)
	if err != nil {
		return err
	}
	if ms > p.Deadline*(1+1e-12) {
		return fmt.Errorf("%w: residual needs D ≥ %.9g, have %.9g", ErrInfeasible, ms, p.Deadline)
	}
	return nil
}

// solutionFromSpeedsAt packages constant speeds into a Solution whose
// schedule honors the release times (start/finish via AnalyzeFrom).
func (p *Problem) solutionFromSpeedsAt(m model.Model, speeds, release []float64, st Stats) (*Solution, error) {
	if !hasRelease(release) {
		return p.solutionFromSpeeds(m, speeds, st)
	}
	s, err := sched.FromSpeedsAt(p.G, speeds, release)
	if err != nil {
		return nil, err
	}
	return &Solution{Model: m, Schedule: s, Energy: s.Energy, Stats: st}, nil
}
