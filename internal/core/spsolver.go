package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/model"
)

// The equivalent-weight algebra behind Theorem 2: under the Continuous model
// with unbounded smax, the minimal energy to execute a series-parallel
// (sub)graph within a window of length x is W³/x², where the equivalent
// weight W composes as
//
//	task:      W = wᵢ
//	series:    W = W₁ + W₂          (optimal window split ∝ equivalent weights)
//	parallel:  W = (W₁³ + W₂³)^(1/3) (both children use the full window)
//
// The fork of Theorem 1 is the special case Series(T0, Parallel(T1..Tn)):
// W = w₀ + (Σ wᵢ³)^(1/3), matching the paper's s₀ = W/D. Trees convert to SP
// expressions (graph.TreeToSP), so this one recursion covers chains, forks,
// joins, trees, and all series-parallel execution graphs in O(n). Under
// power s^α (alpha.go) only the parallel rule changes, to
// W = (W₁^α + W₂^α)^(1/α); the recursion takes α and keeps the cube and
// cube root at α = 3.

// EquivalentWeight computes the algebra bottom-up over an SP expression
// under power s^alpha, reading task weights from g.
func EquivalentWeight(g *graph.Graph, e *graph.SPExpr, alpha float64) float64 {
	switch e.Kind {
	case graph.SPTask:
		return g.Weight(e.Task)
	case graph.SPSeries:
		sum := 0.0
		for _, c := range e.Children {
			sum += EquivalentWeight(g, c, alpha)
		}
		return sum
	default: // SPParallel
		pows := 0.0
		for _, c := range e.Children {
			w := EquivalentWeight(g, c, alpha)
			if alpha == 3 {
				pows += w * w * w
			} else {
				pows += math.Pow(w, alpha)
			}
		}
		if alpha == 3 {
			return math.Cbrt(pows)
		}
		return math.Pow(pows, 1/alpha)
	}
}

// assignSPSpeeds walks the expression top-down, splitting the window of
// every series node in proportion to its children's equivalent weights, and
// setting each leaf's speed to (leaf weight)/(its window).
func assignSPSpeeds(g *graph.Graph, e *graph.SPExpr, window, alpha float64, speeds []float64) {
	switch e.Kind {
	case graph.SPTask:
		speeds[e.Task] = g.Weight(e.Task) / window
	case graph.SPSeries:
		total := EquivalentWeight(g, e, alpha)
		for _, c := range e.Children {
			share := window * EquivalentWeight(g, c, alpha) / total
			assignSPSpeeds(g, c, share, alpha, speeds)
		}
	default: // SPParallel
		for _, c := range e.Children {
			assignSPSpeeds(g, c, window, alpha, speeds)
		}
	}
}

// SolveSPContinuous solves MinEnergy under the Continuous model for an
// execution graph given with its series-parallel decomposition. Per
// Theorem 2 the algebra assumes smax = +∞; when the resulting speeds exceed
// a finite smax the caller should fall back to the numeric solver (the
// dispatcher SolveContinuous does exactly that). An error is returned in
// that case rather than a clamped — and possibly suboptimal — solution.
func (p *Problem) SolveSPContinuous(e *graph.SPExpr, smax float64) (*Solution, error) {
	if e.Size() != p.G.N() {
		return nil, fmt.Errorf("core: SP expression covers %d of %d tasks", e.Size(), p.G.N())
	}
	speeds := make([]float64, p.G.N())
	assignSPSpeeds(p.G, e, p.Deadline, 3, speeds)
	for i, s := range speeds {
		if s > smax*(1+1e-12) {
			return nil, fmt.Errorf("core: SP closed form needs speed %.9g > smax %.9g on task %d (use the numeric solver)", s, smax, i)
		}
	}
	m, err := model.NewContinuous(smax)
	if err != nil {
		return nil, err
	}
	return p.solutionFromSpeeds(m, speeds, Stats{Algorithm: "sp-equivalent-weight", Exact: true, BoundFactor: 1})
}

// SPOptimalEnergy returns the closed-form optimal energy W³/D² of an SP
// expression (smax = ∞).
func (p *Problem) SPOptimalEnergy(e *graph.SPExpr) float64 {
	w := EquivalentWeight(p.G, e, 3)
	return w * w * w / (p.Deadline * p.Deadline)
}

// SolveTreeContinuous recognizes an in- or out-tree, converts it to its SP
// expression, and applies the algebra. Falls back with an error when the
// graph is not a tree or when a finite smax binds.
func (p *Problem) SolveTreeContinuous(smax float64) (*Solution, error) {
	e, ok := graph.TreeToSP(p.G)
	if !ok {
		return nil, fmt.Errorf("core: graph is not an in- or out-tree")
	}
	sol, err := p.SolveSPContinuous(e, smax)
	if err != nil {
		return nil, err
	}
	sol.Stats.Algorithm = "tree-equivalent-weight"
	return sol, nil
}
