package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestAlphaTaskEnergy(t *testing.T) {
	// α = 3 reduces to w·s².
	if AlphaTaskEnergy(6, 2, 3) != 24 {
		t.Fatalf("AlphaTaskEnergy(6,2,3) = %v", AlphaTaskEnergy(6, 2, 3))
	}
	// α = 2: w·s.
	if AlphaTaskEnergy(6, 2, 2) != 12 {
		t.Fatalf("AlphaTaskEnergy(6,2,2) = %v", AlphaTaskEnergy(6, 2, 2))
	}
	if !math.IsInf(AlphaTaskEnergy(1, 0, 3), 1) {
		t.Fatal("zero speed should be infinite")
	}
	if AlphaTaskEnergy(0, 0, 3) != 0 {
		t.Fatal("zero cost should be free")
	}
}

func TestAlphaRejectsBadExponent(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 100)
	for _, alpha := range []float64{1, 0.5, -1, math.Inf(1)} {
		if _, err := p.SolveContinuousNumericAlpha(2, alpha, ContinuousOptions{}); err == nil {
			t.Fatalf("accepted α = %v", alpha)
		}
		if _, err := p.SolveSPContinuousAlpha(graph.SPLeaf(0), alpha); err == nil {
			t.Fatalf("SP solver accepted α = %v", alpha)
		}
	}
}

func TestAlphaThreeMatchesStandardSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, e := graph.RandomSP(rng, 10, graph.UniformWeights(1, 5))
	dmin, _ := g.MinimalDeadline(2)
	p, _ := NewProblem(g, dmin*2)
	std, err := p.SolveSPContinuous(e, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.SolveSPContinuousAlpha(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(std.Energy, gen.Energy) > 1e-12 {
		t.Fatalf("α=3 algebra %v vs standard %v", gen.Energy, std.Energy)
	}
	// And the numeric generalization agrees too: with the closed form up to
	// the interior point's gap, and with the standard numeric solver
	// exactly, since at α = 3 it runs the same code.
	num, err := p.SolveContinuousNumericAlpha(math.Inf(1), 3, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(num.Energy, std.Energy) > 1e-9 {
		t.Fatalf("α=3 numeric %v vs standard %v", num.Energy, std.Energy)
	}
	stdNum, err := p.SolveContinuousNumeric(math.Inf(1), ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(num.Energy, stdNum.Energy) > 1e-12 {
		t.Fatalf("α=3 numeric %v vs standard numeric %v", num.Energy, stdNum.Energy)
	}
}

func TestAlphaEquivalentWeight(t *testing.T) {
	g := graph.New()
	g.AddTask("", 3)
	g.AddTask("", 4)
	e := graph.SPParallelOf(graph.SPLeaf(0), graph.SPLeaf(1))
	// α = 2: (3² + 4²)^(1/2) = 5.
	if got := EquivalentWeight(g, e, 2); relDiff(got, 5) > 1e-12 {
		t.Fatalf("W(α=2) = %v, want 5", got)
	}
	// Series adds regardless of α.
	s := graph.SPSeriesOf(graph.SPLeaf(0), graph.SPLeaf(1))
	if got := EquivalentWeight(g, s, 2.5); got != 7 {
		t.Fatalf("series W = %v, want 7", got)
	}
}

// Property: for random SP graphs and α ∈ {2, 2.5, 3}, the generalized
// algebra matches the generalized numeric solver.
func TestAlphaAlgebraMatchesNumericProperty(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := []float64{2, 2.5, 3}[int(pick)%3]
		n := 2 + rng.Intn(8)
		g, e := graph.RandomSP(rng, n, graph.UniformWeights(1, 5))
		dmin, _ := g.MinimalDeadline(2)
		p, err := NewProblem(g, dmin*(1.5+rng.Float64()))
		if err != nil {
			return false
		}
		closed, err := p.SolveSPContinuousAlpha(e, alpha)
		if err != nil {
			return false
		}
		num, err := p.SolveContinuousNumericAlpha(math.Inf(1), alpha, ContinuousOptions{})
		if err != nil {
			return false
		}
		if relDiff(closed.Energy, num.Energy) > 1e-3 {
			return false
		}
		// Closed form can never be beaten (it is the optimum).
		return closed.Energy <= num.Energy*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaClosedFormValue(t *testing.T) {
	// Chain of total weight W: E = W^α / D^(α-1).
	rng := rand.New(rand.NewSource(2))
	g := graph.Chain(rng, 4, graph.UniformWeights(1, 3))
	order, _ := g.IsChain()
	e := graph.ChainExpr(order)
	D := g.TotalWeight() / 1.3
	p, _ := NewProblem(g, D)
	for _, alpha := range []float64{2, 2.2, 3} {
		sol, err := p.SolveSPContinuousAlpha(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(g.TotalWeight(), alpha) / math.Pow(D, alpha-1)
		if relDiff(sol.Energy, want) > 1e-9 {
			t.Fatalf("α=%v: energy %v, want %v", alpha, sol.Energy, want)
		}
		if relDiff(sol.Energy, p.SPOptimalEnergyAlpha(e, alpha)) > 1e-12 {
			t.Fatal("SPOptimalEnergyAlpha disagrees")
		}
	}
}

// With a smaller exponent, running faster is cheaper, so at a fixed deadline
// the relative penalty of the all-smax baseline shrinks as α decreases.
func TestAlphaEffectOnReclaimingGain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, e := graph.RandomSP(rng, 10, graph.UniformWeights(1, 5))
	dmin, _ := g.MinimalDeadline(2)
	D := dmin * 3
	p, _ := NewProblem(g, D)
	gainAt := func(alpha float64) float64 {
		opt, err := p.SolveSPContinuousAlpha(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		allmax := 0.0
		for i := 0; i < g.N(); i++ {
			allmax += AlphaTaskEnergy(g.Weight(i), 2, alpha)
		}
		return allmax / opt.Energy
	}
	if g2, g3 := gainAt(2), gainAt(3); g3 <= g2 {
		t.Fatalf("cubic power should reward reclaiming more: gain(α=2)=%v gain(α=3)=%v", g2, g3)
	}
}

func TestAlphaInfeasible(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 0.5)
	if _, err := p.SolveContinuousNumericAlpha(2, 2.5, ContinuousOptions{}); err == nil {
		t.Fatal("accepted infeasible α instance")
	}
}
