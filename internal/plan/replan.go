package plan

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// Residual re-planning: when a schedule is already executing, completed
// tasks freeze and the remaining tasks form a residual MinEnergy instance
// with per-task release times (the latest frozen-predecessor finish).
// AnalyzeResidual routes that instance — release-free components keep the
// cheap structural solvers, release-bearing ones go to the release-aware
// kernels — and Replan executes only the components an event actually
// dirtied, warm-starting each from the previous solution and replaying the
// untouched components verbatim. Energy additivity across weakly-connected
// components (the same observation behind SolvePlanned) is what makes the
// verbatim replay lossless: an event in one component cannot move another
// component's optimum.

// Residual describes a residual instance over a problem p built on the
// remaining (incomplete) tasks: release times plus the previous solution
// those tasks currently execute.
type Residual struct {
	// Release[i] is the earliest permitted start of task i (problem-local
	// IDs): the latest actual finish among its frozen predecessors. nil
	// means every task may start at 0.
	Release []float64
	// PrevSpeeds[i] is the constant speed task i currently runs at under
	// the previous solution (Continuous, Discrete, Incremental). Used to
	// warm-start dirty components and to replay clean ones.
	PrevSpeeds []float64
	// PrevProfiles[i] is the previous speed profile of task i
	// (Vdd-Hopping, whose tasks hop between modes). Takes precedence over
	// PrevSpeeds.
	PrevProfiles []sched.Profile
	// Cold disables warm-starting: dirty components re-solve from scratch
	// (clean components still replay). Benchmarks use it as the baseline.
	Cold bool
}

// sliceRelease extracts the component-local release vector, nil when the
// component has no positive release.
func (res *Residual) sliceRelease(tasks []int) []float64 {
	if res == nil || res.Release == nil {
		return nil
	}
	out := make([]float64, len(tasks))
	any := false
	for local, id := range tasks {
		out[local] = res.Release[id]
		if out[local] > 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// sliceWarm extracts the component-local warm seed, nil when cold.
func (res *Residual) sliceWarm(tasks []int, m model.Model) *core.WarmStart {
	if res == nil || res.Cold {
		return nil
	}
	return res.slicePrev(tasks, m)
}

// slicePrev extracts the component-local copy of the previous solution:
// profiles for Vdd-Hopping, constant speeds otherwise (nil when absent).
func (res *Residual) slicePrev(tasks []int, m model.Model) *core.WarmStart {
	ws := &core.WarmStart{}
	if m.Kind == model.VddHopping {
		if res.PrevProfiles == nil {
			return nil
		}
		ws.Profiles = make([]sched.Profile, len(tasks))
		for local, id := range tasks {
			ws.Profiles[local] = res.PrevProfiles[id]
		}
		return ws
	}
	if res.PrevSpeeds == nil {
		return nil
	}
	ws.Speeds = make([]float64, len(tasks))
	for local, id := range tasks {
		ws.Speeds[local] = res.PrevSpeeds[id]
	}
	return ws
}

// reusable reports whether the previous solution covers this component, so
// Replan may replay it verbatim when the component is clean.
func (res *Residual) reusable(tasks []int, m model.Model) bool {
	if res == nil {
		return false
	}
	if m.Kind == model.VddHopping {
		return res.PrevProfiles != nil
	}
	return res.PrevSpeeds != nil
}

// AnalyzeResidual builds the solve plan for a residual instance: Analyze's
// component split and classification, with release-bearing components
// re-routed to the release-aware solvers and every component carrying its
// slice of the previous solution as a warm seed. Execute solves everything;
// Replan solves only the dirty components.
func AnalyzeResidual(p *core.Problem, m model.Model, opts Options, res Residual) (*Plan, error) {
	n := p.G.N()
	if res.Release != nil && len(res.Release) != n {
		return nil, badPlan("%d release times for %d tasks", len(res.Release), n)
	}
	if res.PrevSpeeds != nil && len(res.PrevSpeeds) != n {
		return nil, badPlan("%d previous speeds for %d tasks", len(res.PrevSpeeds), n)
	}
	if res.PrevProfiles != nil && len(res.PrevProfiles) != n {
		return nil, badPlan("%d previous profiles for %d tasks", len(res.PrevProfiles), n)
	}
	return analyze(p, m, opts, &res)
}

// ComponentID indexes Plan.Components.
type ComponentID = int

// ReplanResult is the outcome of an incremental re-plan.
type ReplanResult struct {
	// Solution is the merged residual solution over every component.
	Solution *core.Solution
	// Resolved counts components that ran a solver; Reused counts
	// components replayed from the previous solution.
	Resolved, Reused int
	// WarmSeeded counts resolved components that carried a warm seed.
	WarmSeeded int
}

// Replan executes a residual plan incrementally on the component
// executor: the dirty components (IDs into prev.Components) re-solve —
// warm-started from the previous solution unless the residual is Cold —
// and every other component replays its previous speeds verbatim. A clean
// component without previous data is treated as dirty. The merged solution
// covers the whole residual problem. obs sees the re-solved components
// only; replayed ones carry no new information.
func Replan(prev *Plan, dirty []ComponentID, obs Observer) (*ReplanResult, error) {
	if prev == nil {
		return nil, badPlan("nil plan")
	}
	isDirty := make([]bool, len(prev.Components))
	for _, id := range dirty {
		if id < 0 || id >= len(prev.Components) {
			return nil, badPlan("component id %d out of range [0,%d)", id, len(prev.Components))
		}
		isDirty[id] = true
	}
	out := &ReplanResult{}
	sols := make([]*core.Solution, len(prev.comps))
	for i, cp := range prev.Components {
		if isDirty[i] || !cp.reusable {
			out.Resolved++
			if cp.warm != nil {
				out.WarmSeeded++
			}
			continue
		}
		sol, err := prev.reuseComponent(prev.comps[i], cp)
		if err != nil {
			return nil, fmt.Errorf("plan: replaying clean component %d: %w", i, err)
		}
		sols[i] = sol
		out.Reused++
	}
	merged, err := prev.run(context.TODO(), false, sols, obs)
	if err != nil {
		return nil, err
	}
	out.Solution = merged
	return out, nil
}

// reuseComponent rebuilds a component's solution from the previous speeds
// or profiles without solving.
func (pl *Plan) reuseComponent(c core.Component, cp ComponentPlan) (*core.Solution, error) {
	var s *sched.Schedule
	var err error
	if prev := pl.res.slicePrev(c.Tasks, pl.Model); prev.Profiles != nil {
		s, err = sched.FromProfilesAt(c.Prob.G, prev.Profiles, cp.release)
	} else {
		s, err = sched.FromSpeedsAt(c.Prob.G, prev.Speeds, cp.release)
	}
	if err != nil {
		return nil, err
	}
	return &core.Solution{
		Model:    pl.Model,
		Schedule: s,
		Energy:   s.Energy,
		Stats: core.Stats{
			Algorithm:   "reclaim-reuse",
			Exact:       cp.BoundFactor == 1,
			BoundFactor: cp.BoundFactor,
		},
	}, nil
}
