package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

// Component decomposition: the full-length version of the paper (Aupy,
// Benoit, Dufossé, Robert, arXiv:1204.0939) observes that energy is additive
// across independent subgraphs sharing the deadline — MinEnergy(G, D) on a
// graph with weakly-connected components C₁…C_k decomposes into k
// independent MinEnergy(Cⱼ, D) instances whose optimal energies sum and
// whose speed assignments stitch back by task ID. This file provides the
// split/merge helpers plus SolveAuto / SolvePlanned, the model-aware
// structured dispatch built on them (the explainable routing layer lives in
// internal/plan).

// Component is one weakly-connected component of an execution graph, wrapped
// as its own subproblem under the original deadline.
type Component struct {
	// Prob is the subproblem on the induced subgraph (task IDs re-densified).
	Prob *Problem
	// Tasks maps component-local IDs back to the original: Tasks[local] = id.
	Tasks []int
}

// SplitComponents decomposes p into its weakly-connected components, each an
// independent subproblem with the same deadline. A connected graph yields a
// single component whose Prob shares p's graph (no copy).
func (p *Problem) SplitComponents() ([]Component, error) {
	sets := p.G.WeaklyConnectedComponents()
	if len(sets) == 1 {
		ids := sets[0]
		return []Component{{Prob: p, Tasks: ids}}, nil
	}
	comps := make([]Component, 0, len(sets))
	for _, nodes := range sets {
		sub, back, err := p.G.InducedSubgraph(nodes)
		if err != nil {
			return nil, err
		}
		sp, err := NewProblem(sub, p.Deadline)
		if err != nil {
			return nil, err
		}
		comps = append(comps, Component{Prob: sp, Tasks: back})
	}
	return comps, nil
}

// MergeSolutions stitches per-component solutions back onto p's full
// execution graph: profiles map by task ID, energy re-accounts from the
// merged schedule (it equals the sum of component energies), and solver
// diagnostics aggregate (counters sum, Exact ANDs, BoundFactor takes the
// worst component since Σ ρⱼ·Eⱼ* ≤ max ρⱼ · Σ Eⱼ*).
func (p *Problem) MergeSolutions(comps []Component, sols []*Solution) (*Solution, error) {
	return p.MergeSolutionsAt(comps, sols, nil)
}

// MergeSolutionsAt is MergeSolutions for a residual problem whose task i
// may not start before release[i] (nil: 0). The merged schedule keeps the
// release times, so start times stay where the component solvers put them.
func (p *Problem) MergeSolutionsAt(comps []Component, sols []*Solution, release []float64) (*Solution, error) {
	if len(comps) != len(sols) {
		return nil, fmt.Errorf("core: %d solutions for %d components", len(sols), len(comps))
	}
	if len(comps) == 1 && comps[0].Prob == p {
		return sols[0], nil
	}
	profiles := make([]sched.Profile, p.G.N())
	st := Stats{Exact: true, BoundFactor: 1}
	var names []string
	seen := map[string]bool{}
	var mdl model.Model
	for ci, sol := range sols {
		if sol == nil || sol.Schedule == nil {
			return nil, fmt.Errorf("core: component %d has no solution", ci)
		}
		for local, id := range comps[ci].Tasks {
			profiles[id] = sol.Schedule.Profiles[local]
		}
		mdl = sol.Model
		st.Nodes += sol.Stats.Nodes
		st.Pivots += sol.Stats.Pivots
		st.Newton += sol.Stats.Newton
		if sol.Stats.FrontierPeak > st.FrontierPeak {
			st.FrontierPeak = sol.Stats.FrontierPeak
		}
		st.Exact = st.Exact && sol.Stats.Exact && !math.IsInf(sol.Stats.BoundFactor, 1)
		if sol.Stats.BoundFactor > st.BoundFactor {
			st.BoundFactor = sol.Stats.BoundFactor
		}
		if !seen[sol.Stats.Algorithm] {
			seen[sol.Stats.Algorithm] = true
			names = append(names, sol.Stats.Algorithm)
		}
	}
	sort.Strings(names)
	st.Algorithm = fmt.Sprintf("planned(%d components: %s)", len(comps), strings.Join(names, ", "))
	s, err := sched.FromProfilesAt(p.G, profiles, release)
	if err != nil {
		return nil, err
	}
	return &Solution{Model: mdl, Schedule: s, Energy: s.Energy, Stats: st}, nil
}

// ErrNotSeriesParallel is returned by SolveDiscreteSPAuto when the
// transitive reduction of the execution graph is not series-parallel.
var ErrNotSeriesParallel = errors.New("core: execution graph is not series-parallel")

// SolveDiscreteSPAuto recognizes a series-parallel shape in the transitive
// reduction of the execution graph and runs the exact Pareto DP, re-expanding
// the speeds onto the original graph (path structure, hence feasibility, is
// identical). Returns ErrNotSeriesParallel when the shape is absent.
func (p *Problem) SolveDiscreteSPAuto(m model.Model, opts DiscreteOptions) (*Solution, error) {
	reduced, err := p.G.TransitiveReduction()
	if err != nil {
		return nil, err
	}
	expr, ok := graph.DecomposeSP(reduced)
	if !ok {
		return nil, ErrNotSeriesParallel
	}
	return p.SolveDiscreteSPOn(m, reduced, expr, opts)
}

// SolveDiscreteSPOn is SolveDiscreteSPAuto with the recognition already
// done: expr is a series-parallel decomposition of reduced, the transitive
// reduction of the execution graph — or of the execution graph itself, in
// which case reduced is nil and the DP runs on p directly. The planner uses
// this to reuse the expression recovered during classification instead of
// paying the O(n²·m) recognition twice.
func (p *Problem) SolveDiscreteSPOn(m model.Model, reduced *graph.Graph, expr *graph.SPExpr, opts DiscreteOptions) (*Solution, error) {
	if reduced == nil {
		return p.SolveDiscreteSP(m, expr, opts)
	}
	rp, err := NewProblem(reduced, p.Deadline)
	if err != nil {
		return nil, err
	}
	sol, err := rp.SolveDiscreteSP(m, expr, opts)
	if err != nil {
		return nil, err
	}
	speeds, err := sol.Speeds()
	if err != nil {
		return nil, fmt.Errorf("core: SP solution has non-constant speeds: %w", err)
	}
	s, err := sched.FromSpeeds(p.G, speeds)
	if err != nil {
		return nil, err
	}
	return &Solution{Model: sol.Model, Schedule: s, Energy: s.Energy, Stats: sol.Stats}, nil
}

// SolveSPContinuousOn runs the Theorem 2 equivalent-weight algebra with the
// recognition already done (same contract as SolveDiscreteSPOn: reduced nil
// means expr refers to p's own graph). Errors when the finite smax binds —
// callers fall back to the interior point.
func (p *Problem) SolveSPContinuousOn(reduced *graph.Graph, expr *graph.SPExpr, smax float64) (*Solution, error) {
	if reduced == nil {
		return p.SolveSPContinuous(expr, smax)
	}
	// Speeds computed on the reduced graph are valid for the original: both
	// graphs have identical path structure.
	rp := &Problem{G: reduced, Deadline: p.Deadline}
	sol, err := rp.SolveSPContinuous(expr, smax)
	if err != nil {
		return nil, err
	}
	speeds, err := sol.Speeds()
	if err != nil {
		return nil, err
	}
	return p.solutionFromSpeeds(sol.Model, speeds, sol.Stats)
}

// PlannedOptions tunes SolveAuto and SolvePlanned.
type PlannedOptions struct {
	// Workers bounds concurrent component solves (default GOMAXPROCS).
	Workers int
	// K is the Theorem 5 accuracy parameter (default 4).
	K int
	// Continuous tunes the interior-point fallback.
	Continuous ContinuousOptions
	// Discrete tunes the exact discrete solvers.
	Discrete DiscreteOptions
}

func (o PlannedOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o PlannedOptions) k() int {
	if o.K > 0 {
		return o.K
	}
	return 4
}

// SolveAuto picks the cheapest exact method for the model on this problem,
// mirroring the paper's complexity landscape: the continuous dispatcher's
// closed forms / SP algebra / interior point, the Vdd-Hopping LP, the exact
// Pareto DP on series-parallel shapes (branch-and-bound otherwise) for
// Discrete, and the Theorem 5 approximation for Incremental.
func (p *Problem) SolveAuto(m model.Model, opts PlannedOptions) (*Solution, error) {
	switch m.Kind {
	case model.Continuous:
		return p.SolveContinuous(m.SMax, opts.Continuous)
	case model.VddHopping:
		return p.SolveVddHopping(m)
	case model.Incremental:
		return p.SolveIncrementalApprox(m, opts.k(), opts.Continuous)
	case model.Discrete:
		sol, err := p.SolveDiscreteSPAuto(m, opts.Discrete)
		if err == nil {
			return sol, nil
		}
		if !errors.Is(err, ErrNotSeriesParallel) && !errors.Is(err, ErrSearchLimit) {
			return nil, err
		}
		return p.SolveDiscreteBB(m, opts.Discrete)
	}
	return nil, fmt.Errorf("core: no auto solver for model %s", m.Kind)
}

// SolvePlanned is the component-aware entry point: it splits the execution
// graph into weakly-connected components, solves each independently with
// SolveAuto on a pipeline of at most Workers solver goroutines (the
// deadline applies per component), and merges the solutions. A connected
// graph degenerates to SolveAuto with no overhead or copying.
func (p *Problem) SolvePlanned(m model.Model, opts PlannedOptions) (*Solution, error) {
	comps, err := p.SplitComponents()
	if err != nil {
		return nil, err
	}
	if len(comps) == 1 {
		return p.SolveAuto(m, opts)
	}
	ids := make([]int, len(comps))
	for i := range ids {
		ids[i] = i
	}
	sols := make([]*Solution, len(comps))
	pp := pipeline.New(context.TODO())
	pipeline.Attach(pp, pipeline.Stage[int, struct{}]{ // emits nothing: Wait is the join
		Name:    "solve",
		Workers: min(opts.workers(), len(comps)),
		Do: func(_ context.Context, i int, _ func(struct{}) error) (err error) {
			sols[i], err = comps[i].Prob.SolveAuto(m, opts)
			return err
		},
	}, pipeline.Items(ids))
	if err := pp.Wait(); err != nil {
		var se *pipeline.Error
		if errors.As(err, &se) {
			err = se.Err // report the solver's error as an inline solve would
		}
		return nil, err
	}
	return p.MergeSolutions(comps, sols)
}
