package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/model"
)

// The simple Discrete solvers the fast ones are checked against: the
// Pareto DP that builds every pair of its children's frontiers and sorts
// them, and the greedy loop that computes a full makespan per candidate
// downgrade.

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
// E-decreasing staircase, with SolveDiscreteSP's relative step rule.
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
		if e.E < stepBelow(bestE) {
			out = append(out, e)
			bestE = e.E
		}
	}
	return out
}

// solveDiscreteSPOracle is SolveDiscreteSP by the full product: every pair
// of child frontier entries, sorted and pruned to the staircase, with the
// warm energy as the only bound.
func (p *Problem) solveDiscreteSPOracle(m model.Model, e *graph.SPExpr, opts DiscreteOptions) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	if opts.Release != nil && hasRelease(opts.Release) {
		return nil, fmt.Errorf("core: the SP Pareto DP does not support release times (route residual components to branch-and-bound)")
	}
	if e.Size() != p.G.N() {
		return nil, fmt.Errorf("core: SP expression covers %d of %d tasks", e.Size(), p.G.N())
	}
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

// solveDiscreteGreedyOracle is the greedy loop with a full makespan per
// candidate downgrade: O(n²·m·(n+e)).
func (p *Problem) solveDiscreteGreedyOracle(m model.Model, release []float64) (*Solution, error) {
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
