package core

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Theorem 5: with the Incremental model, MinEnergy(G, D) can be
// approximated within (1 + δ/smin)²·(1 + 1/K)² in time polynomial in the
// instance size and K. The algorithm:
//
//  1. Solve the Continuous relaxation with speeds restricted to
//     [smin, smax] to relative accuracy governed by K (the (1+1/K)² factor
//     pays for working with finite-precision speeds, since the exact
//     continuous optimum involves irrational cube roots the paper shows we
//     cannot even write down polynomially);
//  2. inflate every speed by (1 + 1/K) — absorbing the numeric gap while
//     preserving feasibility — and round it up to the δ-grid
//     {smin + i·δ} ∪ {smax}.
//
// Rounding up only shortens tasks, so the schedule stays feasible; each
// speed grows by at most (1+1/K)(1+δ/smin), so the energy (∝ s²) is within
// (1+δ/smin)²(1+1/K)² of the continuous lower bound, hence of the
// Incremental optimum.

// SolveIncrementalApprox runs the Theorem 5 algorithm. K ≥ 1 trades
// accuracy for the cost of the continuous solve.
func (p *Problem) SolveIncrementalApprox(m model.Model, K int, opts ContinuousOptions) (*Solution, error) {
	if m.Kind != model.Incremental {
		return nil, fmt.Errorf("core: SolveIncrementalApprox needs an Incremental model, got %s", m.Kind)
	}
	bound := Theorem5Bound(m, K)
	sol, err := p.approxByRounding(m, K, opts)
	if err != nil {
		return nil, err
	}
	sol.Stats.Algorithm = "incremental-approx"
	sol.Stats.BoundFactor = bound
	return sol, nil
}

// SolveDiscreteApprox is the second bullet of Proposition 1: the same
// construction applied to an arbitrary Discrete mode set approximates the
// discrete optimum within (1 + α/s₁)²·(1 + 1/K)², α = max mode gap.
func (p *Problem) SolveDiscreteApprox(m model.Model, K int, opts ContinuousOptions) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	bound := Proposition1DiscreteBound(m, K)
	sol, err := p.approxByRounding(m, K, opts)
	if err != nil {
		return nil, err
	}
	sol.Stats.Algorithm = "discrete-approx"
	sol.Stats.BoundFactor = bound
	return sol, nil
}

func (p *Problem) approxByRounding(m model.Model, K int, opts ContinuousOptions) (*Solution, error) {
	if K < 1 {
		return nil, fmt.Errorf("core: K must be a positive integer, got %d", K)
	}
	bounded := opts
	bounded.SMin = m.SMin
	// Solve the speed-bounded continuous relaxation tightly enough that the
	// (1+1/K) inflation dominates the numeric error.
	if bounded.Tol == 0 {
		bounded.Tol = math.Min(1e-10, 0.01/float64(K*K))
	}
	cont, err := p.SolveContinuousNumeric(m.SMax, bounded)
	if err != nil {
		return nil, err
	}
	contSpeeds, err := cont.Speeds()
	if err != nil {
		return nil, err
	}
	inflate := 1 + 1/float64(K)
	speeds := make([]float64, len(contSpeeds))
	for i, s := range contSpeeds {
		target := s * inflate
		if target >= m.SMax {
			speeds[i] = m.SMax // still ≥ s, so feasibility is preserved
			continue
		}
		up, err := m.RoundUp(target)
		if err != nil {
			up = m.SMax
		}
		speeds[i] = up
	}
	return p.solutionFromSpeedsAt(m, speeds, opts.Release, Stats{Newton: cont.Stats.Newton})
}

// Theorem5Bound returns (1 + δ/smin)²·(1 + 1/K)².
func Theorem5Bound(m model.Model, K int) float64 {
	a := 1 + m.Delta/m.SMin
	b := 1 + 1/float64(K)
	return a * a * b * b
}

// Proposition1ContinuousBound returns (1 + δ/smin)²: how closely the
// Incremental model itself can track the Continuous optimum (first bullet
// of Proposition 1).
func Proposition1ContinuousBound(m model.Model) float64 {
	a := 1 + m.Delta/m.SMin
	return a * a
}

// Proposition1DiscreteBound returns (1 + α/s₁)²·(1 + 1/K)² with α the
// largest gap between consecutive modes (second bullet of Proposition 1).
func Proposition1DiscreteBound(m model.Model, K int) float64 {
	a := 1 + m.MaxGap()/m.SMin
	b := 1 + 1/float64(K)
	return a * a * b * b
}
