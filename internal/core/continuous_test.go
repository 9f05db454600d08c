package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/workload"
)

// --- Theorem 1: chains and forks ---

func TestChainClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Chain(rng, 5, graph.UniformWeights(1, 4))
	D := g.TotalWeight() / 1.5 // uniform speed 1.5
	p, _ := NewProblem(g, D)
	sol, err := p.SolveChainContinuous(2)
	if err != nil {
		t.Fatal(err)
	}
	speeds, _ := sol.Speeds()
	for _, s := range speeds {
		if relDiff(s, 1.5) > 1e-12 {
			t.Fatalf("chain speed %v, want 1.5", s)
		}
	}
	wantE := math.Pow(g.TotalWeight(), 3) / (D * D)
	if relDiff(sol.Energy, wantE) > 1e-12 {
		t.Fatalf("chain energy %v, want %v", sol.Energy, wantE)
	}
	if err := p.Verify(sol, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Infeasible when the needed speed exceeds smax.
	if _, err := p.SolveChainContinuous(1.4); err == nil {
		t.Fatal("accepted infeasible chain")
	}
	// Non-chain input rejected.
	pd, _ := NewProblem(diamondGraph(), 100)
	if _, err := pd.SolveChainContinuous(2); err == nil {
		t.Fatal("diamond accepted as chain")
	}
}

func TestChainMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Chain(rng, 7, graph.UniformWeights(1, 3))
	D := g.TotalWeight() / 1.2
	p, _ := NewProblem(g, D)
	closed, err := p.SolveChainContinuous(2)
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := p.SolveContinuousNumeric(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(closed.Energy, numeric.Energy) > 1e-5 {
		t.Fatalf("chain closed %v vs numeric %v", closed.Energy, numeric.Energy)
	}
}

func TestForkTheorem1UnsaturatedBranch(t *testing.T) {
	// Fork with generous smax: Theorem 1 formulas verbatim.
	g := graph.New()
	g.AddTask("T0", 2)
	leaves := []float64{1, 3, 4}
	for i, w := range leaves {
		g.AddTask("", w)
		g.MustAddEdge(0, i+1)
	}
	D := 5.0
	p, _ := NewProblem(g, D)
	sol, err := p.SolveForkContinuous(100)
	if err != nil {
		t.Fatal(err)
	}
	sumCubes := 1.0 + 27 + 64
	croot := math.Cbrt(sumCubes)
	s0 := (croot + 2) / D
	speeds, _ := sol.Speeds()
	if relDiff(speeds[0], s0) > 1e-12 {
		t.Fatalf("s0 = %v, want %v", speeds[0], s0)
	}
	for i, w := range leaves {
		want := s0 * w / croot
		if relDiff(speeds[i+1], want) > 1e-12 {
			t.Fatalf("s%d = %v, want %v", i+1, speeds[i+1], want)
		}
	}
	oracle, err := ForkOptimalEnergy(2, leaves, D, 100)
	if err != nil || relDiff(sol.Energy, oracle) > 1e-12 {
		t.Fatalf("energy %v vs oracle %v (%v)", sol.Energy, oracle, err)
	}
	if err := p.Verify(sol, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestForkTheorem1SaturatedBranch(t *testing.T) {
	// smax low enough that s0 > smax: source runs at smax, leaves share D'.
	g := graph.New()
	g.AddTask("T0", 2)
	leaves := []float64{1, 3, 4}
	for i, w := range leaves {
		g.AddTask("", w)
		g.MustAddEdge(0, i+1)
	}
	D := 5.0
	smax := 1.3 // s0 unconstrained ≈ 1.225... pick just below
	// Unconstrained s0 = (cbrt(92)+2)/5 ≈ 1.304 > 1.3 → saturated.
	p, _ := NewProblem(g, D)
	sol, err := p.SolveForkContinuous(smax)
	if err != nil {
		t.Fatal(err)
	}
	speeds, _ := sol.Speeds()
	if relDiff(speeds[0], smax) > 1e-12 {
		t.Fatalf("saturated source speed %v, want smax %v", speeds[0], smax)
	}
	dprime := D - 2/smax
	for i, w := range leaves {
		if relDiff(speeds[i+1], w/dprime) > 1e-12 {
			t.Fatalf("leaf %d speed %v, want %v", i, speeds[i+1], w/dprime)
		}
	}
	if err := p.Verify(sol, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Fully infeasible: even smax can't finish source in time.
	p2, _ := NewProblem(g.Clone(), 0.1)
	if _, err := p2.SolveForkContinuous(smax); err == nil {
		t.Fatal("accepted infeasible fork")
	}
}

func TestForkMatchesNumericBothBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		g := graph.Fork(rng, 2+rng.Intn(6), graph.UniformWeights(1, 5))
		dmin, _ := g.MinimalDeadline(2)
		// Mix tight and loose deadlines to hit both Theorem 1 branches.
		D := dmin * (1.02 + rng.Float64()*3)
		p, _ := NewProblem(g, D)
		closed, err := p.SolveForkContinuous(2)
		if err != nil {
			t.Fatal(err)
		}
		numeric, err := p.SolveContinuousNumeric(2, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(closed.Energy, numeric.Energy) > 2e-4 {
			t.Fatalf("trial %d: closed %v vs numeric %v (D=%v dmin=%v)",
				trial, closed.Energy, numeric.Energy, D, dmin)
		}
		if closed.Energy > numeric.Energy*(1+1e-6) {
			t.Fatalf("trial %d: closed form worse than numeric", trial)
		}
	}
}

// --- Theorem 2: trees and series-parallel graphs ---

func TestEquivalentWeightAlgebra(t *testing.T) {
	g := graph.New()
	g.AddTask("", 2) // 0
	g.AddTask("", 1) // 1
	g.AddTask("", 3) // 2
	// Series(0, Parallel(1, 2)): W = 2 + (1+27)^(1/3).
	e := graph.SPSeriesOf(graph.SPLeaf(0), graph.SPParallelOf(graph.SPLeaf(1), graph.SPLeaf(2)))
	want := 2 + math.Cbrt(28)
	if got := EquivalentWeight(g, e, 3); relDiff(got, want) > 1e-12 {
		t.Fatalf("W = %v, want %v", got, want)
	}
}

func TestSPSolveForkShape(t *testing.T) {
	// The SP solver on a fork must reproduce Theorem 1 (smax = ∞).
	g := graph.New()
	g.AddTask("T0", 2)
	leaves := []float64{1, 3, 4}
	children := []*graph.SPExpr{}
	for i, w := range leaves {
		g.AddTask("", w)
		g.MustAddEdge(0, i+1)
		children = append(children, graph.SPLeaf(i+1))
	}
	e := graph.SPSeriesOf(graph.SPLeaf(0), graph.SPParallelOf(children...))
	D := 5.0
	p, _ := NewProblem(g, D)
	sol, err := p.SolveSPContinuous(e, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := ForkOptimalEnergy(2, leaves, D, math.Inf(1))
	if relDiff(sol.Energy, oracle) > 1e-12 {
		t.Fatalf("SP fork energy %v vs Theorem 1 %v", sol.Energy, oracle)
	}
	if relDiff(sol.Energy, p.SPOptimalEnergy(e)) > 1e-12 {
		t.Fatal("SPOptimalEnergy disagrees with assigned speeds")
	}
}

func TestSPRejectsWhenSmaxBinds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, e := graph.RandomSP(rng, 8, graph.UniformWeights(1, 4))
	dmin, _ := g.MinimalDeadline(1)
	p, _ := NewProblem(g, dmin*1.01) // very tight: algebra speeds exceed smax=1
	if _, err := p.SolveSPContinuous(e, 1); err == nil {
		t.Fatal("SP closed form should refuse when smax binds")
	}
	// The dispatcher falls back to numeric and still solves it.
	sol, err := p.SolveContinuous(1, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(sol, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// Property: on random SP graphs with loose smax, the equivalent-weight
// algebra matches the interior-point solver.
func TestSPMatchesNumericProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g, e := graph.RandomSP(rng, n, graph.UniformWeights(1, 5))
		dmin, _ := g.MinimalDeadline(2)
		D := dmin * (1.5 + rng.Float64()*2)
		p, err := NewProblem(g, D)
		if err != nil {
			return false
		}
		closed, err := p.SolveSPContinuous(e, math.Inf(1))
		if err != nil {
			// smax=∞ never binds; only tight numerical corner cases allowed.
			return false
		}
		numeric, err := p.SolveContinuousNumeric(math.Inf(1), ContinuousOptions{})
		if err != nil {
			return false
		}
		return relDiff(closed.Energy, numeric.Energy) < 5e-4 &&
			closed.Energy <= numeric.Energy*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSolveMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, build := range []func() *graph.Graph{
		func() *graph.Graph { return graph.RandomOutTree(rng, 9, graph.UniformWeights(1, 4)) },
		func() *graph.Graph { return graph.RandomInTree(rng, 9, graph.UniformWeights(1, 4)) },
	} {
		g := build()
		dmin, _ := g.MinimalDeadline(3)
		D := dmin * 2.5
		p, _ := NewProblem(g, D)
		closed, err := p.SolveTreeContinuous(math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		numeric, err := p.SolveContinuousNumeric(math.Inf(1), ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(closed.Energy, numeric.Energy) > 5e-4 {
			t.Fatalf("tree closed %v vs numeric %v", closed.Energy, numeric.Energy)
		}
		if err := p.Verify(closed, 1e-6); err != nil {
			t.Fatal(err)
		}
	}
	pd, _ := NewProblem(diamondGraph(), 100)
	if _, err := pd.SolveTreeContinuous(2); err == nil {
		t.Fatal("diamond accepted as tree")
	}
}

// --- The general numeric solver ---

func TestNumericOnArbitraryDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	eg := randomExecGraph(t, rng, 15, 3)
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := NewProblem(eg, dmin*1.8)
	sol, err := p.SolveContinuousNumeric(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Newton == 0 {
		t.Fatal("expected Newton iterations to be reported")
	}
	// The deadline should be (nearly) saturated: with a convex increasing
	// cost in speed, the optimum uses all available time.
	if sol.Schedule.Makespan < p.Deadline*0.999 {
		t.Fatalf("optimum leaves slack: makespan %v, deadline %v", sol.Schedule.Makespan, p.Deadline)
	}
}

func TestNumericTightDeadlineShortcut(t *testing.T) {
	g := diamondGraph()
	dmin, _ := g.MinimalDeadline(2)
	p, _ := NewProblem(g, dmin)
	sol, err := p.SolveContinuousNumeric(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	speeds, _ := sol.Speeds()
	for _, s := range speeds {
		if s != 2 {
			t.Fatalf("tight deadline should force smax, got %v", s)
		}
	}
}

func TestNumericInfeasible(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 1)
	if _, err := p.SolveContinuousNumeric(2, ContinuousOptions{}); err == nil {
		t.Fatal("accepted infeasible instance")
	}
}

func TestNumericRejectsBadBounds(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 10)
	if _, err := p.SolveContinuousNumeric(0, ContinuousOptions{}); err == nil {
		t.Fatal("accepted smax=0")
	}
	if _, err := p.SolveContinuousNumeric(2, ContinuousOptions{SMin: 3}); err == nil {
		t.Fatal("accepted smin > smax")
	}
}

func TestNumericWithSMinBand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eg := randomExecGraph(t, rng, 10, 2)
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := NewProblem(eg, dmin*3)
	free, err := p.SolveContinuousNumeric(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	banded, err := p.SolveContinuousNumeric(2, ContinuousOptions{SMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	speeds, _ := banded.Speeds()
	for i, s := range speeds {
		if s < 1-1e-9 || s > 2+1e-9 {
			t.Fatalf("task %d speed %v outside [1,2]", i, s)
		}
	}
	// Restricting the feasible set cannot reduce energy.
	if banded.Energy < free.Energy*(1-1e-6) {
		t.Fatalf("banded %v beats free %v", banded.Energy, free.Energy)
	}
	// Degenerate band smin == smax.
	deg, err := p.SolveContinuousNumeric(2, ContinuousOptions{SMin: 2})
	if err != nil {
		t.Fatal(err)
	}
	dspeeds, _ := deg.Speeds()
	for _, s := range dspeeds {
		if s != 2 {
			t.Fatalf("degenerate band speed %v, want 2", s)
		}
	}
}

// Scale invariance: scaling all weights by c and D by c leaves speeds
// unchanged and scales energy by c.
func TestNumericScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	eg := randomExecGraph(t, rng, 10, 2)
	dmin, _ := eg.MinimalDeadline(2)
	D := dmin * 2
	p1, _ := NewProblem(eg, D)
	s1, err := p1.SolveContinuousNumeric(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const c = 1000.0
	eg2 := eg.Clone()
	for i := 0; i < eg2.N(); i++ {
		eg2.SetWeight(i, eg2.Weight(i)*c)
	}
	p2, _ := NewProblem(eg2, D*c)
	s2, err := p2.SolveContinuousNumeric(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(s1.Energy*c, s2.Energy) > 1e-6 {
		t.Fatalf("scale invariance broken: %v vs %v/%v", s1.Energy, s2.Energy, c)
	}
}

// TestSolveContinuousChainAllocs pins the routed closed-form path: a
// 256-task chain goes through Classify, SelectRoute, and SolveRoute with no
// SP expression built and no rationale formatted, so it allocates no more
// than the inline dispatch it replaced (280 allocations with go1.24).
func TestSolveContinuousChainAllocs(t *testing.T) {
	chain := graph.Chain(rand.New(rand.NewSource(1)), 256, graph.UniformWeights(1, 3))
	p, _ := NewProblem(chain, chain.TotalWeight())
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := p.SolveContinuous(2, ContinuousOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 280 {
		t.Fatalf("SolveContinuous on a 256-task chain: %v allocations, want ≤ 280", allocs)
	}
}

// TestClassifyGeneralDAGAllocs pins Classify's rejection of a general DAG
// at a handful of allocations: the tree and join tests read degrees in
// place, and the transitive reduction returns the graph itself when no
// edge is redundant, so rejecting layered-512 builds no graph.
func TestClassifyGeneralDAGAllocs(t *testing.T) {
	g, err := workload.FromSeed("layered", 512, 1, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sh := Classify(g); sh.Class != ClassGeneralDAG {
		t.Fatalf("layered-512 classifies as %s", sh.Class)
	}
	if allocs := testing.AllocsPerRun(20, func() { Classify(g) }); allocs > 64 {
		t.Fatalf("Classify on layered-512: %v allocations, want ≤ 64", allocs)
	}
}

func TestDispatcherPicksClosedForms(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	chain := graph.Chain(rng, 6, graph.UniformWeights(1, 3))
	p, _ := NewProblem(chain, chain.TotalWeight())
	sol, err := p.SolveContinuous(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Algorithm != "chain-closed-form" {
		t.Fatalf("dispatcher used %q for a chain", sol.Stats.Algorithm)
	}
	fork := graph.Fork(rng, 5, graph.UniformWeights(1, 3))
	dmin, _ := fork.MinimalDeadline(2)
	pf, _ := NewProblem(fork, dmin*2)
	solF, err := pf.SolveContinuous(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if solF.Stats.Algorithm != "fork-closed-form" {
		t.Fatalf("dispatcher used %q for a fork", solF.Stats.Algorithm)
	}
	tree := graph.RandomOutTree(rng, 10, graph.UniformWeights(1, 3))
	dminT, _ := tree.MinimalDeadline(2)
	pt, _ := NewProblem(tree, dminT*4)
	solT, err := pt.SolveContinuous(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if solT.Stats.Algorithm != "tree-equivalent-weight" {
		t.Fatalf("dispatcher used %q for a tree", solT.Stats.Algorithm)
	}
	// An SP-decomposable DAG that is not a tree.
	spg, _ := graph.RandomSP(rng, 9, graph.UniformWeights(1, 3))
	if _, ok := graph.TreeToSP(spg); !ok {
		dminS, _ := spg.MinimalDeadline(2)
		ps, _ := NewProblem(spg, dminS*4)
		solS, err := ps.SolveContinuous(2, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if solS.Stats.Algorithm != "sp-equivalent-weight" {
			t.Fatalf("dispatcher used %q for an SP graph", solS.Stats.Algorithm)
		}
	}
	// General DAG → numeric.
	eg := randomExecGraph(t, rand.New(rand.NewSource(10)), 12, 3)
	if _, ok := graph.DecomposeSP(eg); !ok {
		dminG, _ := eg.MinimalDeadline(2)
		pg, _ := NewProblem(eg, dminG*2)
		solG, err := pg.SolveContinuous(2, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if solG.Stats.Algorithm != "continuous-interior-point" &&
			solG.Stats.Algorithm != "sp-equivalent-weight" {
			t.Fatalf("dispatcher used %q for a general DAG", solG.Stats.Algorithm)
		}
	}
}
