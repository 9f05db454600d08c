package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/model"
)

// Theorem 4: MinEnergy(G, D) is NP-complete under the Discrete (and
// Incremental) models. This file provides two exact solvers — a
// branch-and-bound over mode assignments for arbitrary execution graphs,
// and a Pareto-frontier dynamic program that is exact and fast on
// series-parallel shapes — plus the polynomial heuristics the experiments
// compare against.

// DiscreteOptions tunes the exact solvers.
type DiscreteOptions struct {
	// MaxNodes bounds branch-and-bound nodes (default 4e6).
	MaxNodes int
	// MaxFrontier bounds the Pareto DP frontier size (default 500000).
	MaxFrontier int
	// Release gives each task an earliest permitted start (residual
	// re-solves). Supported by branch-and-bound and the greedy heuristic;
	// the SP Pareto DP rejects it (series/parallel composition has no
	// notion of per-task absolute time).
	Release []float64
	// Warm seeds the exact solvers from a previous assignment without
	// changing their result: branch-and-bound opens with it as incumbent
	// (when still feasible), and the Pareto DP prunes frontier entries
	// that already cost more than the previous energy — both are sound
	// because the previous assignment's energy upper-bounds the optimum
	// whenever it remains feasible.
	Warm *WarmStart
}

func (o DiscreteOptions) maxNodes() int {
	if o.MaxNodes == 0 {
		return 4_000_000
	}
	return o.MaxNodes
}

func (o DiscreteOptions) maxFrontier() int {
	if o.MaxFrontier == 0 {
		return 500_000
	}
	return o.MaxFrontier
}

// ErrSearchLimit is returned when an exact solver exhausts its node or
// frontier budget before proving optimality.
var ErrSearchLimit = errors.New("core: exact search exceeded its budget (instance too large — Theorem 4 in action)")

func discreteKind(m model.Model) error {
	if m.Kind != model.Discrete && m.Kind != model.Incremental {
		return fmt.Errorf("core: need a Discrete or Incremental model, got %s", m.Kind)
	}
	return nil
}

// SolveDiscreteBB computes the exact optimum by depth-first branch-and-bound
// over per-task modes. Tasks are branched in decreasing weight order; modes
// are tried slowest-first; subtrees are pruned when (a) even running every
// unassigned task at top speed misses the deadline, or (b) the energy of the
// assigned prefix plus every unassigned task at the slowest mode already
// meets the incumbent. The greedy heuristic provides the initial incumbent.
func (p *Problem) SolveDiscreteBB(m model.Model, opts DiscreteOptions) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	if err := p.CheckFeasibleFrom(m.SMax, opts.Release); err != nil {
		return nil, err
	}
	release := opts.Release
	if release != nil && !hasRelease(release) {
		release = nil
	}
	n := p.G.N()
	modes := m.Modes
	nm := len(modes)
	top := modes[nm-1]

	// Incumbent: the previous assignment when warm data is present and
	// still feasible (its energy upper-bounds the optimum, and it usually
	// sits far closer than the greedy's), otherwise the greedy heuristic
	// (always succeeds when feasible).
	bestEnergy := math.Inf(1)
	bestSpeeds := make([]float64, n)
	if ws := warmModeSpeeds(p, m, opts.Warm, release); ws != nil {
		copy(bestSpeeds, ws)
		bestEnergy = 0
		for i := 0; i < n; i++ {
			bestEnergy += model.TaskEnergy(p.G.Weight(i), ws[i])
		}
	} else if greedy, err := p.solveDiscreteGreedy(m, release); err == nil {
		gs, _ := greedy.Speeds()
		copy(bestSpeeds, gs)
		bestEnergy = greedy.Energy
	} else {
		for i := range bestSpeeds {
			bestSpeeds[i] = top
		}
		bestEnergy = 0
		for i := 0; i < n; i++ {
			bestEnergy += model.TaskEnergy(p.G.Weight(i), top)
		}
	}

	// Branch order: heaviest tasks first (largest energy leverage).
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		if p.G.Weight(perm[a]) != p.G.Weight(perm[b]) {
			return p.G.Weight(perm[a]) > p.G.Weight(perm[b])
		}
		return perm[a] < perm[b]
	})

	durations := make([]float64, n)
	for i := 0; i < n; i++ {
		durations[i] = p.G.Weight(i) / top // unassigned: fastest
	}
	speeds := make([]float64, n)
	// Suffix minimum-energy bound: every unassigned task at the slowest mode.
	suffixMin := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		suffixMin[k] = suffixMin[k+1] + model.TaskEnergy(p.G.Weight(perm[k]), modes[0])
	}

	nodes := 0
	limit := opts.maxNodes()
	var limitHit bool
	const eps = 1e-12

	var dfs func(k int, prefixEnergy float64)
	dfs = func(k int, prefixEnergy float64) {
		if limitHit {
			return
		}
		nodes++
		if nodes > limit {
			limitHit = true
			return
		}
		if k == n {
			if prefixEnergy < bestEnergy-eps {
				bestEnergy = prefixEnergy
				copy(bestSpeeds, speeds)
			}
			return
		}
		t := perm[k]
		w := p.G.Weight(t)
		for j := 0; j < nm; j++ {
			e := prefixEnergy + model.TaskEnergy(w, modes[j])
			if e+suffixMin[k+1] >= bestEnergy-eps {
				break // faster modes only cost more
			}
			durations[t] = w / modes[j]
			if ms, _ := p.G.MakespanFrom(durations, release); ms <= p.Deadline*(1+1e-12) {
				speeds[t] = modes[j]
				dfs(k+1, e)
			}
		}
		durations[t] = w / top // restore the optimistic duration
	}
	dfs(0, 0)

	st := Stats{Algorithm: "discrete-bb", Nodes: nodes, Exact: !limitHit, BoundFactor: 1}
	if limitHit {
		// Return the incumbent, flagged as possibly suboptimal.
		st.BoundFactor = math.Inf(1)
	}
	if math.IsInf(bestEnergy, 1) {
		return nil, ErrInfeasible
	}
	sol, err := p.solutionFromSpeedsAt(m, bestSpeeds, release, st)
	if err != nil {
		return nil, err
	}
	if limitHit {
		return sol, ErrSearchLimit
	}
	return sol, nil
}

// warmModeSpeeds validates a warm assignment for the discrete solvers:
// every previous speed snaps to an admissible mode and the assignment still
// meets the deadline under the release times. Returns the snapped speeds,
// or nil when the warm data is absent, stale, or infeasible.
func warmModeSpeeds(p *Problem, m model.Model, warm *WarmStart, release []float64) []float64 {
	n := p.G.N()
	if warm == nil || len(warm.Speeds) != n {
		return nil
	}
	speeds := make([]float64, n)
	durations := make([]float64, n)
	for i, s := range warm.Speeds {
		snapped := 0.0
		for _, mode := range m.Modes {
			if math.Abs(s-mode) <= 1e-9*math.Max(1, mode) {
				snapped = mode
				break
			}
		}
		if snapped == 0 {
			return nil // previous speed is not on this mode ladder
		}
		speeds[i] = snapped
		durations[i] = p.G.Weight(i) / snapped
	}
	ms, err := p.G.MakespanFrom(durations, release)
	if err != nil || ms > p.Deadline*(1+1e-12) {
		return nil
	}
	return speeds
}

// SolveDiscreteGreedy is the classic slack-reclamation heuristic: start
// every task at the top mode, then repeatedly take the single mode
// downgrade with the largest energy saving that keeps the deadline, until
// no downgrade fits. Polynomial: O(n²·m·(n+m)) worst case.
func (p *Problem) SolveDiscreteGreedy(m model.Model) (*Solution, error) {
	return p.solveDiscreteGreedy(m, nil)
}

// SolveDiscreteGreedyOpts is SolveDiscreteGreedy with residual release
// times (opts.Release); the other exact-solver options are ignored.
func (p *Problem) SolveDiscreteGreedyOpts(m model.Model, opts DiscreteOptions) (*Solution, error) {
	release := opts.Release
	if release != nil && !hasRelease(release) {
		release = nil
	}
	return p.solveDiscreteGreedy(m, release)
}

func (p *Problem) solveDiscreteGreedy(m model.Model, release []float64) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	if err := p.CheckFeasibleFrom(m.SMax, release); err != nil {
		return nil, err
	}
	n := p.G.N()
	modes := m.Modes
	nm := len(modes)
	idx := make([]int, n) // current mode index per task
	durations := make([]float64, n)
	for i := 0; i < n; i++ {
		idx[i] = nm - 1
		durations[i] = p.G.Weight(i) / modes[nm-1]
	}
	for {
		bestTask, bestGain := -1, 0.0
		for i := 0; i < n; i++ {
			if idx[i] == 0 {
				continue
			}
			w := p.G.Weight(i)
			oldD := durations[i]
			durations[i] = w / modes[idx[i]-1]
			ms, err := p.G.MakespanFrom(durations, release)
			durations[i] = oldD
			if err != nil {
				return nil, err
			}
			if ms > p.Deadline*(1+1e-12) {
				continue
			}
			gain := model.TaskEnergy(w, modes[idx[i]]) - model.TaskEnergy(w, modes[idx[i]-1])
			if gain > bestGain {
				bestGain, bestTask = gain, i
			}
		}
		if bestTask < 0 {
			break
		}
		idx[bestTask]--
		durations[bestTask] = p.G.Weight(bestTask) / modes[idx[bestTask]]
	}
	speeds := make([]float64, n)
	for i := 0; i < n; i++ {
		speeds[i] = modes[idx[i]]
	}
	return p.solutionFromSpeedsAt(m, speeds, release, Stats{Algorithm: "discrete-greedy", Exact: false, BoundFactor: math.Inf(1)})
}

// SolveDiscreteRoundUp is the Proposition 1 construction: solve the
// Continuous relaxation with speeds in [s₁, sₘ], then round every speed up
// to the next admissible mode. Rounding up only shortens tasks, so the
// result stays feasible; the energy is within (1+α/s₁)² of the continuous
// optimum (α = largest gap between consecutive modes), hence within the
// same factor of the discrete optimum.
func (p *Problem) SolveDiscreteRoundUp(m model.Model, opts ContinuousOptions) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	bounded := opts
	bounded.SMin = m.SMin
	cont, err := p.SolveContinuousNumeric(m.SMax, bounded)
	if err != nil {
		return nil, err
	}
	contSpeeds, err := cont.Speeds()
	if err != nil {
		return nil, err
	}
	speeds := make([]float64, len(contSpeeds))
	for i, s := range contSpeeds {
		up, err := m.RoundUp(s)
		if err != nil {
			// Roundoff above the top mode: the top mode is still ≥ the true
			// continuous optimum, so it remains feasible.
			up = m.SMax
		}
		speeds[i] = up
	}
	return p.solutionFromSpeedsAt(m, speeds, opts.Release, Stats{Algorithm: "discrete-roundup", Exact: false, BoundFactor: roundUpBound(m)})
}

// roundUpBound is SolveDiscreteRoundUp's a-priori factor (1+α/s₁)², α the
// largest gap between consecutive modes.
func roundUpBound(m model.Model) float64 {
	a := 1 + m.MaxGap()/m.SMin
	return a * a
}

// --- Exact Pareto dynamic program on series-parallel execution graphs ---

// paretoEntry is one nondominated (makespan, energy) point together with the
// provenance needed to rebuild the mode assignment.
type paretoEntry struct {
	T, E   float64
	mode   int // leaf: mode index; internal: -1
	li, ri int // internal: chosen entry in left/right child frontier
}

type dpNode struct {
	task        int // leaf task, or -1
	series      bool
	left, right *dpNode
	frontier    []paretoEntry
}

// buildDPTree converts an SPExpr into a binary DP tree (n-ary compositions
// fold left).
func buildDPTree(e *graph.SPExpr) *dpNode {
	if e.Kind == graph.SPTask {
		return &dpNode{task: e.Task}
	}
	cur := buildDPTree(e.Children[0])
	for _, c := range e.Children[1:] {
		cur = &dpNode{
			task:   -1,
			series: e.Kind == graph.SPSeries,
			left:   cur,
			right:  buildDPTree(c),
		}
	}
	return cur
}

// prunePareto sorts entries by (T asc, E asc) and keeps the strictly
// E-decreasing staircase.
func prunePareto(entries []paretoEntry) []paretoEntry {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].T != entries[j].T {
			return entries[i].T < entries[j].T
		}
		return entries[i].E < entries[j].E
	})
	out := entries[:0]
	bestE := math.Inf(1)
	for _, e := range entries {
		if e.E < bestE-1e-15 {
			out = append(out, e)
			bestE = e.E
		}
	}
	return out
}

// SolveDiscreteSP computes the exact Discrete/Incremental optimum on a
// series-parallel execution graph by composing Pareto frontiers of
// (makespan, energy) pairs: a leaf contributes one point per mode; series
// composition adds coordinates; parallel composition takes the max of
// makespans and adds energies. Exponential in the worst case (Theorem 4
// still applies) but typically far faster than branch-and-bound because
// domination pruning collapses the state space.
func (p *Problem) SolveDiscreteSP(m model.Model, e *graph.SPExpr, opts DiscreteOptions) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	if opts.Release != nil && hasRelease(opts.Release) {
		return nil, fmt.Errorf("core: the SP Pareto DP does not support release times (route residual components to branch-and-bound)")
	}
	if e.Size() != p.G.N() {
		return nil, fmt.Errorf("core: SP expression covers %d of %d tasks", e.Size(), p.G.N())
	}
	// Warm energy bound: a still-feasible previous assignment upper-bounds
	// the optimum, so any frontier entry that alone costs more than it can
	// never extend to an optimal solution (sibling energies are
	// non-negative) and is pruned.
	eBound := math.Inf(1)
	if ws := warmModeSpeeds(p, m, opts.Warm, nil); ws != nil {
		eBound = 0
		for i := 0; i < p.G.N(); i++ {
			eBound += model.TaskEnergy(p.G.Weight(i), ws[i])
		}
		eBound = eBound*(1+1e-9) + 1e-12
	}
	root := buildDPTree(e)
	peak := 0
	var compute func(nd *dpNode) error
	compute = func(nd *dpNode) error {
		if nd.task >= 0 {
			w := p.G.Weight(nd.task)
			for j, s := range m.Modes {
				T := w / s
				if T <= p.Deadline*(1+1e-12) && model.TaskEnergy(w, s) <= eBound {
					nd.frontier = append(nd.frontier, paretoEntry{T: T, E: model.TaskEnergy(w, s), mode: j, li: -1, ri: -1})
				}
			}
			nd.frontier = prunePareto(nd.frontier)
			if len(nd.frontier) == 0 {
				return fmt.Errorf("%w: task %d cannot meet the deadline alone", ErrInfeasible, nd.task)
			}
			return nil
		}
		if err := compute(nd.left); err != nil {
			return err
		}
		if err := compute(nd.right); err != nil {
			return err
		}
		merged := make([]paretoEntry, 0, len(nd.left.frontier)+len(nd.right.frontier))
		for li, a := range nd.left.frontier {
			for ri, b := range nd.right.frontier {
				var T float64
				if nd.series {
					T = a.T + b.T
				} else {
					T = math.Max(a.T, b.T)
				}
				if T > p.Deadline*(1+1e-12) || a.E+b.E > eBound {
					continue
				}
				merged = append(merged, paretoEntry{T: T, E: a.E + b.E, mode: -1, li: li, ri: ri})
			}
		}
		nd.frontier = prunePareto(merged)
		if len(nd.frontier) > peak {
			peak = len(nd.frontier)
		}
		if len(nd.frontier) > opts.maxFrontier() {
			return ErrSearchLimit
		}
		if len(nd.frontier) == 0 {
			return ErrInfeasible
		}
		return nil
	}
	if err := compute(root); err != nil {
		return nil, err
	}
	// The frontier is E-decreasing in T; the optimum is the last entry.
	bestIdx := len(root.frontier) - 1

	speeds := make([]float64, p.G.N())
	var rebuild func(nd *dpNode, idx int)
	rebuild = func(nd *dpNode, idx int) {
		ent := nd.frontier[idx]
		if nd.task >= 0 {
			speeds[nd.task] = m.Modes[ent.mode]
			return
		}
		rebuild(nd.left, ent.li)
		rebuild(nd.right, ent.ri)
	}
	rebuild(root, bestIdx)
	return p.solutionFromSpeeds(m, speeds, Stats{
		Algorithm:    "discrete-sp-dp",
		FrontierPeak: peak,
		Exact:        true,
		BoundFactor:  1,
	})
}
