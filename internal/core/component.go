package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

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
// split/merge helpers plus SolveAuto / SolvePlanned, which run the routing
// table (SelectRoute, route.go) per component; internal/plan runs the same
// table with explanations, caching, and a concurrent executor.

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

// PlannedOptions tunes SolveAuto and SolvePlanned.
type PlannedOptions struct {
	// K is the Theorem 5 accuracy parameter (default 4).
	K int
	// Continuous tunes the interior-point fallback.
	Continuous ContinuousOptions
	// Discrete tunes the exact discrete solvers.
	Discrete DiscreteOptions
}

func (o PlannedOptions) k() int {
	if o.K > 0 {
		return o.K
	}
	return 4
}

// residual reports whether the options carry constraints the closed forms
// and the Pareto DP cannot express: release times, or a speed floor.
func (o PlannedOptions) residual() bool {
	return o.Continuous.SMin > 0 || hasRelease(o.Continuous.Release) || hasRelease(o.Discrete.Release)
}

// SolveAuto runs the routing table (SelectRoute) on this problem as one
// component: the cheapest exact method the model and structure admit, or
// the Theorem 5 approximation for Incremental.
func (p *Problem) SolveAuto(m model.Model, opts PlannedOptions) (*Solution, error) {
	// The Continuous and Discrete auto rows read the class without
	// residual constraints, and the Vdd-Hopping rows whether the component
	// is a chain: skip the recognition everywhere else.
	sh := Shape{Class: ClassGeneralDAG}
	switch {
	case (m.Kind == model.Continuous || m.Kind == model.Discrete) && !opts.residual():
		sh = Classify(p.G)
	case m.Kind == model.VddHopping:
		if _, ok := p.G.IsChain(); ok {
			sh.Class = ClassChain
		}
	}
	r, err := SelectRoute(m, AlgoAuto, sh.Class, p.G.N(), opts)
	if err != nil {
		return nil, err
	}
	return p.SolveRoute(m, r.Solver, sh, opts)
}

// SolvePlanned is the component-aware entry point: it splits the execution
// graph into weakly-connected components, solves each independently with
// SolveAuto on a pipeline of at most GOMAXPROCS solver goroutines (the
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
	sols := make([]*Solution, len(comps))
	err = solveEach(len(comps), runtime.GOMAXPROCS(0), func(i int) (err error) {
		sols[i], err = comps[i].Prob.SolveAuto(m, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return p.MergeSolutions(comps, sols)
}

// solveEach runs solve(0) … solve(n−1) on one pipeline stage of at most
// workers goroutines, each writing its own result slot, and returns the
// first error as the solver reported it: a panic in solve becomes a
// resilience.ErrPanic error instead of crashing the caller.
func solveEach(n, workers int, solve func(i int) error) error {
	if n == 0 {
		return nil
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	pp := pipeline.New(context.TODO())
	pipeline.Attach(pp, pipeline.Stage[int, struct{}]{ // emits nothing: Wait is the join
		Name:    "solve",
		Workers: min(workers, n),
		Do:      func(_ context.Context, i int, _ func(struct{}) error) error { return solve(i) },
	}, pipeline.Items(ids))
	err := pp.Wait()
	var se *pipeline.Error
	if errors.As(err, &se) {
		err = se.Err // report the solver's error as an inline solve would
	}
	return err
}
