package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

// Error-path and boundary coverage for the solver entry points.

func TestForkOptimalEnergyBranches(t *testing.T) {
	// Unsaturated: matches the fork solver.
	e, err := ForkOptimalEnergy(2, []float64{1, 3, 4}, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	croot := math.Cbrt(1 + 27 + 64)
	s0 := (croot + 2) / 5
	if relDiff(e, (2+croot)*s0*s0) > 1e-12 {
		t.Fatalf("unsaturated oracle = %v", e)
	}
	// Saturated: source clamped at smax.
	eSat, err := ForkOptimalEnergy(2, []float64{1, 3, 4}, 5, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if eSat <= e {
		t.Fatalf("saturated energy %v should exceed unsaturated %v", eSat, e)
	}
	// Source alone busts the deadline.
	if _, err := ForkOptimalEnergy(10, []float64{1}, 1, 2); err == nil {
		t.Fatal("accepted impossible source")
	}
	// A leaf busts the remaining window.
	if _, err := ForkOptimalEnergy(1, []float64{100}, 1.2, 5); err == nil {
		t.Fatal("accepted impossible leaf")
	}
}

func TestVddTwoModeClampsSlowTasks(t *testing.T) {
	// A very loose deadline pushes continuous speeds below the slowest mode;
	// the two-mode heuristic must clamp to smin and stay feasible.
	rng := rand.New(rand.NewSource(1))
	g := graph.Chain(rng, 4, graph.UniformWeights(1, 2))
	dmin, _ := g.MinimalDeadline(2)
	p, _ := NewProblem(g, dmin*20)
	vm, _ := model.NewVddHopping([]float64{0.5, 1, 2})
	sol, err := p.SolveVddTwoMode(vm, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	// All tasks should sit at the bottom mode, constant speed.
	for i, prof := range sol.Schedule.Profiles {
		if len(prof) != 1 || prof[0].Speed != 0.5 {
			t.Fatalf("task %d profile %v, want constant 0.5", i, prof)
		}
	}
	// And the energy hits the floor exactly.
	if relDiff(sol.Energy, g.TotalWeight()*0.25) > 1e-9 {
		t.Fatalf("floor energy %v, want %v", sol.Energy, g.TotalWeight()*0.25)
	}
}

func TestDiscreteSPFrontierLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, e := graph.RandomSP(rng, 20, graph.UniformWeights(1, 5))
	dmin, _ := g.MinimalDeadline(2)
	p, _ := NewProblem(g, dmin*1.5)
	im, _ := model.NewIncremental(0.25, 2, 0.05) // 36 modes: frontier blows past 3
	_, err := p.SolveDiscreteSP(im, e, DiscreteOptions{MaxFrontier: 3})
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("expected ErrSearchLimit, got %v", err)
	}
}

func TestCurveRejectsInfiniteSmax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Chain(rng, 3, graph.ConstantWeights(1))
	if _, err := EnergyDeadlineCurve(g, math.Inf(1), []float64{2}, ContinuousOptions{}); err == nil {
		t.Fatal("accepted infinite smax for a Dmin-relative curve")
	}
}

func TestCurveAndRatePropagateInfeasibility(t *testing.T) {
	g := graph.New()
	g.AddTask("x", 1)
	// MarginalEnergyRate at a deadline whose lower sample is infeasible.
	if _, err := MarginalEnergyRate(g, 1, 1.0, 0.5, ContinuousOptions{}); err == nil {
		t.Fatal("accepted infeasible lower sample")
	}
}

func TestHomogeneityPropagatesErrors(t *testing.T) {
	g := graph.New()
	g.AddTask("x", 1)
	// λ so small the scaled instance still solves (smax=∞ → always feasible),
	// but a non-positive base deadline must error.
	if _, err := HomogeneityCheck(g, 0, []float64{2}, ContinuousOptions{}); err == nil {
		t.Fatal("accepted zero base deadline")
	}
}

func TestSolutionFromSpeedsRejectsBadSpeeds(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 10)
	m, _ := model.NewContinuous(2)
	if _, err := p.solutionFromSpeeds(m, []float64{1, 1, -1, 1}, Stats{}); err == nil {
		t.Fatal("accepted negative speed")
	}
	if _, err := p.solutionFromSpeeds(m, []float64{1}, Stats{}); err == nil {
		t.Fatal("accepted wrong speed count")
	}
}

func TestAlphaSolutionRejectsInfeasibleSpeeds(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 1) // cpw 8: speeds 1 cannot fit
	if _, err := p.alphaSolutionFromSpeeds([]float64{1, 1, 1, 1}, nil, 3, Stats{}); err == nil {
		t.Fatal("accepted deadline-violating α speeds")
	}
	p2, _ := NewProblem(diamondGraph(), 100)
	if _, err := p2.alphaSolutionFromSpeeds([]float64{0, 1, 1, 1}, nil, 3, Stats{}); err == nil {
		t.Fatal("accepted zero α speed")
	}
}

func TestDiscreteOptionsDefaults(t *testing.T) {
	var o DiscreteOptions
	if o.maxNodes() != 4_000_000 || o.maxFrontier() != 500_000 {
		t.Fatalf("defaults: %d, %d", o.maxNodes(), o.maxFrontier())
	}
	o = DiscreteOptions{MaxNodes: 7, MaxFrontier: 9}
	if o.maxNodes() != 7 || o.maxFrontier() != 9 {
		t.Fatalf("overrides ignored: %d, %d", o.maxNodes(), o.maxFrontier())
	}
}

func TestCheckFeasibleCycle(t *testing.T) {
	g := graph.New()
	g.AddTasks(2, 1)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	p := &Problem{G: g, Deadline: 10}
	if err := p.CheckFeasible(1); err == nil {
		t.Fatal("accepted cyclic graph")
	}
}
