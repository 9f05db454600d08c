// Package core implements MinEnergy(G, D), the paper's optimization problem:
// given an execution graph G (precedence edges plus the serialization edges
// induced by a fixed mapping) and a deadline D, choose task speeds that
// minimize the total dynamic energy Σ sᵢ³·dᵢ = Σ wᵢ·sᵢ², subject to every
// task finishing by D.
//
// One solver per energy model:
//
//   - Continuous — closed forms for chains and forks (Theorem 1), the
//     equivalent-weight algebra for trees and series-parallel graphs
//     (Theorem 2), and an interior-point geometric-program solver for
//     arbitrary DAGs (Section 2.1).
//   - Vdd-Hopping — exact linear program (Theorem 3).
//   - Discrete / Incremental — NP-complete (Theorem 4): exact branch-and-
//     bound and an exact Pareto dynamic program for SP-shaped graphs, plus
//     the polynomial approximation algorithm of Theorem 5 and the greedy /
//     round-up heuristics behind Proposition 1.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/sched"
)

// Problem is an instance of MinEnergy(G, D).
type Problem struct {
	// G is the execution graph: the application's precedence edges plus the
	// serialization edges of the given mapping (see platform.BuildExecutionGraph).
	G *graph.Graph
	// Deadline is the bound D on the completion time of every task.
	Deadline float64
}

// NewProblem validates and wraps an instance.
func NewProblem(g *graph.Graph, deadline float64) (*Problem, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !(deadline > 0) {
		return nil, fmt.Errorf("core: deadline must be positive, got %v", deadline)
	}
	return &Problem{G: g, Deadline: deadline}, nil
}

// ErrInfeasible is returned when no speed assignment meets the deadline.
var ErrInfeasible = errors.New("core: infeasible — deadline below the fastest possible makespan")

// MinimalDeadline returns the smallest feasible deadline at top speed smax.
func (p *Problem) MinimalDeadline(smax float64) (float64, error) {
	return p.G.MinimalDeadline(smax)
}

// CheckFeasible verifies D ≥ critical-path weight / smax.
func (p *Problem) CheckFeasible(smax float64) error {
	dmin, err := p.MinimalDeadline(smax)
	if err != nil {
		return err
	}
	if dmin > p.Deadline*(1+1e-12) {
		return fmt.Errorf("%w: need D ≥ %.9g, have %.9g", ErrInfeasible, dmin, p.Deadline)
	}
	return nil
}

// Stats carries solver diagnostics.
type Stats struct {
	// Algorithm names the solving procedure.
	Algorithm string
	// Nodes counts branch-and-bound nodes (discrete exact solver).
	Nodes int
	// Pivots counts simplex pivots (Vdd-Hopping LP).
	Pivots int
	// Newton counts interior-point Newton iterations (continuous numeric).
	Newton int
	// FrontierPeak is the largest Pareto frontier (discrete SP solver).
	FrontierPeak int
	// Exact is true when the result is provably optimal for its model.
	Exact bool
	// BoundFactor is the a-priori approximation guarantee for approximate
	// algorithms (1 for exact ones).
	BoundFactor float64
	// PrecedenceRowsDropped counts transitively implied precedence rows
	// removed before constraint assembly (continuous numeric on dense
	// DAGs). The feasible set is unchanged; the interior point just
	// carries fewer rows.
	PrecedenceRowsDropped int
	// LowerBound is a certified lower bound on the optimal energy (the
	// interior point's Lagrangian dual), so Energy − LowerBound bounds the
	// answer's distance from the optimum. 0 means no certificate, and 0 is
	// always a valid bound.
	LowerBound float64
}

// Solution is a feasible (or optimal) answer to MinEnergy for some model.
type Solution struct {
	Model    model.Model
	Schedule *sched.Schedule
	Energy   float64
	Stats    Stats
}

// Speeds returns per-task constant speeds when the solution uses them.
func (s *Solution) Speeds() ([]float64, error) { return s.Schedule.Speeds() }

// Verify re-checks a solution independently: schedule feasibility against
// the problem's deadline, speed admissibility under the solution's model,
// full work execution, and energy accounting (recomputed from profiles).
func (p *Problem) Verify(s *Solution, tol float64) error {
	if s == nil || s.Schedule == nil {
		return errors.New("core: nil solution")
	}
	if s.Schedule.G != p.G {
		// Allow a structural clone — but insist on the canonical encoding
		// (weights and the full edge set), not just matching node/edge
		// counts, so a schedule built on a different graph that happens to
		// share N and M cannot validate against this problem.
		if !bytes.Equal(s.Schedule.G.CanonicalBytes(), p.G.CanonicalBytes()) {
			return errors.New("core: solution schedule built on a different graph")
		}
	}
	if err := s.Schedule.Validate(p.Deadline, &s.Model, tol); err != nil {
		return err
	}
	energy := 0.0
	for _, prof := range s.Schedule.Profiles {
		energy += prof.Energy()
	}
	if math.Abs(energy-s.Energy) > tol*math.Max(1, energy) {
		return fmt.Errorf("core: reported energy %.9g but profiles account %.9g", s.Energy, energy)
	}
	return nil
}

// solutionFromSpeeds packages constant speeds into a verified Solution.
func (p *Problem) solutionFromSpeeds(m model.Model, speeds []float64, st Stats) (*Solution, error) {
	s, err := sched.FromSpeeds(p.G, speeds)
	if err != nil {
		return nil, err
	}
	return &Solution{Model: m, Schedule: s, Energy: s.Energy, Stats: st}, nil
}
