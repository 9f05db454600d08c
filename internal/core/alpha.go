package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Extension: generalized power exponent. The paper (following its citations
// [4, 5]) fixes dynamic power to s³; the wider DVFS literature models it as
// s^α with α ∈ (1, 3]. Every continuous-model structure of the paper
// survives the generalization:
//
//   - a task of cost w at speed s burns w·s^(α-1);
//   - a chain runs at one speed, with energy W^α/D^(α-1);
//   - the series composition still splits the window in proportion to
//     equivalent weights (the first-order condition W₁/y = W₂/(x-y) is
//     α-independent), so series weights still add;
//   - the parallel composition becomes W = (W₁^α + W₂^α)^(1/α);
//   - the fork optimum becomes s₀ = ((Σwᵢ^α)^(1/α) + w₀)/D;
//   - on a general DAG the geometric program keeps its rows and only its
//     objective changes, to Σ wᵢ^α/dᵢ^(α−1).
//
// So the extension adds no solver of its own: the SP algebra (spsolver.go)
// and the geometric program (solveGP, continuous.go) take α, and at α = 3
// they run exactly the paper's arithmetic. These entry points are the
// ablation substrate for the "does α matter?" experiment (A2); they
// deliberately return a lean AlphaSolution rather than a Schedule because
// the sched package accounts energy at the paper's fixed α = 3.

// AlphaSolution is a continuous-model solution under power s^alpha.
type AlphaSolution struct {
	Alpha    float64
	Speeds   []float64
	Energy   float64 // Σ wᵢ·sᵢ^(α-1)
	Makespan float64
	Stats    Stats
}

// AlphaTaskEnergy returns w·s^(α-1), the generalized task energy.
func AlphaTaskEnergy(w, s, alpha float64) float64 {
	if s <= 0 {
		if w == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return w * math.Pow(s, alpha-1)
}

func checkAlpha(alpha float64) error {
	if !(alpha > 1) || math.IsInf(alpha, 1) {
		return fmt.Errorf("core: power exponent α must be finite and > 1, got %v", alpha)
	}
	return nil
}

// SolveSPContinuousAlpha solves the continuous model with power s^α on a
// series-parallel execution graph (smax = ∞), in O(n·depth).
func (p *Problem) SolveSPContinuousAlpha(e *graph.SPExpr, alpha float64) (*AlphaSolution, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	if e.Size() != p.G.N() {
		return nil, fmt.Errorf("core: SP expression covers %d of %d tasks", e.Size(), p.G.N())
	}
	speeds := make([]float64, p.G.N())
	assignSPSpeeds(p.G, e, p.Deadline, alpha, speeds)
	return p.alphaSolutionFromSpeeds(speeds, nil, alpha, Stats{Algorithm: "sp-equivalent-weight-alpha", Exact: true, BoundFactor: 1})
}

// SPOptimalEnergyAlpha returns the closed-form optimum W^α / D^(α-1).
func (p *Problem) SPOptimalEnergyAlpha(e *graph.SPExpr, alpha float64) float64 {
	w := EquivalentWeight(p.G, e, alpha)
	return math.Pow(w, alpha) / math.Pow(p.Deadline, alpha-1)
}

// SolveContinuousNumericAlpha solves the generalized geometric program on an
// arbitrary execution graph with speeds in (0, smax]. opts applies exactly
// as in SolveContinuousNumeric.
func (p *Problem) SolveContinuousNumericAlpha(smax, alpha float64, opts ContinuousOptions) (*AlphaSolution, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	speeds, release, st, err := p.solveGP(smax, alpha, opts)
	if err != nil {
		return nil, err
	}
	st.Algorithm += "-alpha"
	return p.alphaSolutionFromSpeeds(speeds, release, alpha, st)
}

// alphaSolutionFromSpeeds computes the generalized energy and validates
// feasibility against the deadline, with tasks started no earlier than
// their release times (nil: all at 0).
func (p *Problem) alphaSolutionFromSpeeds(speeds, release []float64, alpha float64, st Stats) (*AlphaSolution, error) {
	n := p.G.N()
	durations := make([]float64, n)
	energy := 0.0
	for i := 0; i < n; i++ {
		if !(speeds[i] > 0) {
			return nil, fmt.Errorf("core: task %d has non-positive speed %v", i, speeds[i])
		}
		durations[i] = p.G.Weight(i) / speeds[i]
		energy += AlphaTaskEnergy(p.G.Weight(i), speeds[i], alpha)
	}
	ms, err := p.G.MakespanFrom(durations, release)
	if err != nil {
		return nil, err
	}
	if ms > p.Deadline*(1+1e-6) {
		return nil, fmt.Errorf("%w: α-solution makespan %.9g > %.9g", ErrInfeasible, ms, p.Deadline)
	}
	return &AlphaSolution{Alpha: alpha, Speeds: speeds, Energy: energy, Makespan: ms, Stats: st}, nil
}
