package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

// compareDiscreteSP solves p on its series-parallel expression with
// SolveDiscreteSP and with the oracle, and fails t unless the answers
// agree: the oracle's errors are matched (ErrInfeasible with ErrInfeasible;
// where the oracle exceeds its frontier budget the fast DP, whose pruned
// staircases are smaller, may answer instead), every answer verifies at
// 1e-9, the energies agree within 1e-12 relative, and the fast DP's
// frontier peak never exceeds the oracle's. It returns both answers, or
// nils when there is nothing to compare.
func compareDiscreteSP(t testing.TB, name string, p *Problem, m model.Model, opts DiscreteOptions) (got, want *Solution) {
	t.Helper()
	sh := Classify(p.G)
	got, err := p.onSPExpr(sh, func(q *Problem, e *graph.SPExpr) (*Solution, error) { return q.SolveDiscreteSP(m, e, opts) })
	want, werr := p.onSPExpr(sh, func(q *Problem, e *graph.SPExpr) (*Solution, error) { return q.solveDiscreteSPOracle(m, e, opts) })
	switch {
	case errors.Is(werr, ErrSearchLimit):
		if err == nil {
			if verr := p.Verify(got, 1e-9); verr != nil {
				t.Fatalf("%s: %v", name, verr)
			}
		} else if !errors.Is(err, ErrSearchLimit) && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: %v where the oracle exceeds its budget", name, err)
		}
		return nil, nil
	case werr != nil:
		if !errors.Is(werr, ErrInfeasible) {
			t.Fatalf("%s: oracle: %v", name, werr)
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: %v where the oracle reports %v", name, err, werr)
		}
		return nil, nil
	case err != nil:
		t.Fatalf("%s: %v where the oracle answers %.17g", name, err, want.Energy)
	}
	if verr := p.Verify(got, 1e-9); verr != nil {
		t.Fatalf("%s: %v", name, verr)
	}
	if relDiff(got.Energy, want.Energy) > 1e-12 {
		t.Fatalf("%s: energy %.17g, oracle %.17g", name, got.Energy, want.Energy)
	}
	if got.Stats.FrontierPeak > want.Stats.FrontierPeak {
		t.Fatalf("%s: frontier peak %d above the oracle's %d", name, got.Stats.FrontierPeak, want.Stats.FrontierPeak)
	}
	return got, want
}

// discreteLadders are the mode ladders the Discrete solvers are checked
// on: three modes two ways, two modes, and the twelve-mode DVFS ladder.
var discreteLadders = [][]float64{{0.5, 1, 2}, {0.7, 1.2, 2}, {1, 2}, vddLadders[2]}

// TestDiscreteSPMatchesOracle checks the frontier recursion against the
// full-product DP across the series-parallel families × mode ladders ×
// deadlines from the minimum to 3.9× it × uniform, constant and
// near-constant weights × cold and warm starts. The warm start is the
// oracle's own optimum, so the energy bound sits exactly at the answer.
// Energies must be bit-identical except where constant weights tie
// several assignments at the optimum. The larger size of each family
// skips the twelve-mode ladder, where the oracle's products take seconds.
func TestDiscreteSPMatchesOracle(t *testing.T) {
	families := []struct {
		name  string
		sizes []int
	}{
		{"chain", []int{8, 14}}, {"fork", []int{12, 29}}, {"join", []int{12, 29}},
		{"forkjoin", []int{3, 9}}, {"tree", []int{12, 30}}, {"intree", []int{12, 30}},
		{"sp", []int{12, 30}}, {"mapreduce", []int{8, 24}},
	}
	weights := []struct {
		name string
		wf   graph.WeightFunc
	}{
		{"uniform", graph.UniformWeights(0.5, 3)},
		{"constant", graph.ConstantWeights(1)},
		{"near-constant", graph.UniformWeights(1, 1+1e-6)},
	}
	factors := []float64{1, 1 + 1e-7, 1.02, 1.4, 2, 3.9}
	solved, tied := 0, 0
	tally := func(name string, got, want *Solution, constant bool) {
		if got == nil {
			return
		}
		solved++
		if got.Energy != want.Energy {
			if !constant {
				t.Fatalf("%s: energy %.17g, oracle %.17g", name, got.Energy, want.Energy)
			}
			tied++
		}
	}
	rng := rand.New(rand.NewSource(26))
	for _, fam := range families {
		for si, n := range fam.sizes {
			ladders := discreteLadders
			if si > 0 {
				ladders = ladders[:3]
			}
			for _, wk := range weights {
				g, err := workload.Generate(fam.name, n, rng, wk.wf)
				if err != nil {
					t.Fatal(err)
				}
				for li, modes := range ladders {
					dm, err := model.NewDiscrete(modes)
					if err != nil {
						t.Fatal(err)
					}
					dmin, _ := g.MinimalDeadline(dm.SMax)
					for _, f := range factors {
						p, err := NewProblem(g, dmin*f)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s-%d/%s/ladder%d/%gx", fam.name, n, wk.name, li, f)
						got, want := compareDiscreteSP(t, name, p, dm, DiscreteOptions{})
						if got == nil {
							continue
						}
						tally(name, got, want, wk.name == "constant")
						ws, _ := want.Speeds()
						got, want = compareDiscreteSP(t, name+"/warm", p, dm, DiscreteOptions{Warm: &WarmStart{Speeds: ws}})
						tally(name+"/warm", got, want, wk.name == "constant")
					}
				}
			}
		}
	}
	t.Logf("%d solved, %d within 1e-12 on tied optima, the rest bit-identical", solved, tied)
}

// TestDiscreteGreedyMatchesOracle checks the float-test greedy against the
// loop that computes a full makespan per candidate downgrade: the same
// speeds, or the same error, on random DAGs of every shape, with and
// without release times.
func TestDiscreteGreedyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	families := []string{"chain", "fork", "join", "forkjoin", "tree", "intree", "sp", "mapreduce", "layered", "gnp"}
	weights := []graph.WeightFunc{graph.UniformWeights(0.5, 3), graph.ConstantWeights(1), graph.UniformWeights(1, 1+1e-6)}
	factors := []float64{1, 1 + 1e-7, 1.02, 1.4, 2, 3.9}
	matched := 0
	for trial := 0; trial < 600; trial++ {
		fam := families[trial%len(families)]
		n := 2 + rng.Intn(24)
		if fam == "forkjoin" {
			n = 1 + n/3
		}
		g, err := workload.Generate(fam, n, rng, weights[rng.Intn(len(weights))])
		if err != nil {
			t.Fatal(err)
		}
		dm, err := model.NewDiscrete(discreteLadders[rng.Intn(len(discreteLadders))])
		if err != nil {
			t.Fatal(err)
		}
		dmin, _ := g.MinimalDeadline(dm.SMax)
		p, err := NewProblem(g, dmin*factors[rng.Intn(len(factors))])
		if err != nil {
			t.Fatal(err)
		}
		var release []float64
		if trial%2 == 1 {
			release = make([]float64, g.N())
			for i := range release {
				if rng.Intn(3) == 0 {
					release[i] = 0.5 * rng.Float64() * p.Deadline
				}
			}
		}
		name := fmt.Sprintf("trial %d (%s-%d, %d modes, release %v)", trial, fam, g.N(), len(dm.Modes), release != nil)
		got, err := p.solveDiscreteGreedy(dm, release)
		want, werr := p.solveDiscreteGreedyOracle(dm, release)
		if werr != nil {
			if !errors.Is(werr, ErrInfeasible) || !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: %v where the oracle reports %v", name, err, werr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs, _ := got.Speeds()
		ws, _ := want.Speeds()
		if !slices.Equal(gs, ws) {
			t.Fatalf("%s: speeds %v, oracle %v", name, gs, ws)
		}
		matched++
	}
	t.Logf("%d of 600 greedy answers matched the oracle, the rest infeasible on both", matched)
}

// TestDiscreteBBAllocsFlat pins that branch-and-bound allocates per solve,
// not per node: its deadline test runs the forward pass over one
// topological order into one buffer.
func TestDiscreteBBAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	eg := randomExecGraph(t, rng, 14, 3)
	dm, _ := model.NewDiscrete([]float64{0.5, 0.9, 1.4, 2})
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := NewProblem(eg, dmin*1.5)
	solve := func(maxNodes int) (nodes int, allocs float64) {
		allocs = testing.AllocsPerRun(3, func() {
			sol, _ := p.SolveDiscreteBB(dm, DiscreteOptions{MaxNodes: maxNodes})
			nodes = sol.Stats.Nodes
		})
		return nodes, allocs
	}
	fewNodes, fewAllocs := solve(20)
	manyNodes, manyAllocs := solve(0)
	t.Logf("%d nodes: %v allocations, %d nodes: %v", fewNodes, fewAllocs, manyNodes, manyAllocs)
	if manyNodes < 100*fewNodes {
		t.Fatalf("the full search took %d nodes against %d: too few to compare", manyNodes, fewNodes)
	}
	if manyAllocs > fewAllocs {
		t.Fatalf("%v allocations at %d nodes, %v at %d", manyAllocs, manyNodes, fewAllocs, fewNodes)
	}
}

// TestDiscreteSPRoundingEdges pins the DP's answers where its tree sums
// round differently from the graph's forward pass and from each other,
// against the oracle on the same expression.
func TestDiscreteSPRoundingEdges(t *testing.T) {
	// The graph's forward pass adds (a+b)+c, the tree a+(b+c). With every
	// task at the slowest mode the first meets the deadline and the second
	// misses it by an ulp, so the greedy's incumbent (all slowest) is
	// cheaper than every assignment the tree admits: the energy bound
	// would empty the staircases, and the DP solves again without it.
	rng := rand.New(rand.NewSource(28))
	var a, b, c float64
	for a+b+c >= a+(b+c) {
		a, b, c = 1+rng.Float64(), 1+rng.Float64(), 1+rng.Float64()
	}
	e := graph.SPSeriesOf(graph.SPLeaf(0), graph.SPParallelOf(graph.SPSeriesOf(graph.SPLeaf(1), graph.SPLeaf(2)), graph.SPLeaf(3)))
	g, err := graph.MaterializeSP(e, []float64{a, b, c, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	D := (a + b + c) / (1 + 1e-12)
	for D*(1+1e-12) > a+b+c {
		D = math.Nextafter(D, 0)
	}
	p, _ := NewProblem(g, D)
	dm, _ := model.NewDiscrete([]float64{1, 2})
	if gs, ok, _ := p.greedySpeeds(dm.Modes, nil); !ok || slices.Max(gs) != 1 {
		t.Fatalf("greedy speeds %v (ok %v), want every task at the slowest", gs, ok)
	}
	got, err := p.SolveDiscreteSP(dm, e, DiscreteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.solveDiscreteSPOracle(dm, e, DiscreteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Energy != want.Energy || want.Energy <= g.TotalWeight()*(1+1e-9) {
		t.Fatalf("energy %.17g, oracle %.17g, all slowest %.17g", got.Energy, want.Energy, g.TotalWeight())
	}

	// A task long in time and cheap in energy (weight 1 at mode 2⁻²⁰) in
	// series with one short in both (weight 2⁻³⁴): its two faster modes
	// add 2⁻³³ and 2⁻³⁴ to a makespan of 2²⁰, whose ulp is 2⁻³², so both
	// sums round to 2²⁰. The staircase keeps only the cheaper one. Without
	// an incumbent nothing is pruned, so the staircase is the oracle's.
	g = graph.Chain(rng, 2, graph.ConstantWeights(1))
	g.SetWeight(1, math.Ldexp(1, -34))
	dm, _ = model.NewDiscrete([]float64{math.Ldexp(1, -20), 0.5, 1})
	p, _ = NewProblem(g, math.Ldexp(1, 21))
	e = graph.ChainExpr([]int{0, 1})
	tr := &spTree{g: g, modes: dm.Modes}
	root := tr.add(e)
	if _, err := tr.solve(p.Deadline, math.Inf(1), 1<<20); err != nil {
		t.Fatal(err)
	}
	want, err = p.solveDiscreteSPOracle(dm, e, DiscreteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.nodes[root].stairs; len(got) != want.Stats.FrontierPeak {
		t.Fatalf("staircase %v, the oracle's has %d steps", got, want.Stats.FrontierPeak)
	}
}

// scaledProblem is p with every weight and the deadline multiplied by c.
func scaledProblem(t testing.TB, p *Problem, c float64) *Problem {
	t.Helper()
	w := p.G.Weights()
	for i := range w {
		w[i] *= c
	}
	q, err := NewProblem(p.G.CloneWithWeights(w), p.Deadline*c)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// solveSP runs SolveDiscreteSP on p's series-parallel expression.
func solveSP(p *Problem, m model.Model) (*Solution, error) {
	return p.onSPExpr(Classify(p.G), func(q *Problem, e *graph.SPExpr) (*Solution, error) {
		return q.SolveDiscreteSP(m, e, DiscreteOptions{})
	})
}

// TestDiscreteExactAtAnyWeightScale is the scale metamorphic property of
// the exact Discrete solvers: multiplying every weight and the deadline by
// c keeps the optimal speeds and multiplies the optimal energy by c, so
// the scaled answer must be c times the unscaled one within 1e-9. The DP
// runs on the series-parallel families, branch-and-bound on gnp-10 and
// layered-10.
func TestDiscreteExactAtAnyWeightScale(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	families := []string{"chain", "fork", "join", "forkjoin", "tree", "intree", "sp", "mapreduce", "gnp", "layered"}
	for _, fam := range families {
		n := 12
		switch fam {
		case "forkjoin":
			n = 4
		case "gnp", "layered":
			n = 10
		}
		g, err := workload.Generate(fam, n, rng, graph.UniformWeights(0.5, 3))
		if err != nil {
			t.Fatal(err)
		}
		for li, modes := range discreteLadders[:3] {
			dm, err := model.NewDiscrete(modes)
			if err != nil {
				t.Fatal(err)
			}
			solve := func(q *Problem) (*Solution, error) { return solveSP(q, dm) }
			if fam == "gnp" || fam == "layered" {
				solve = func(q *Problem) (*Solution, error) { return q.SolveDiscreteBB(dm, DiscreteOptions{}) }
			}
			dmin, _ := g.MinimalDeadline(dm.SMax)
			for _, f := range []float64{1.02, 1.4, 2, 3.9} {
				p, err := NewProblem(g, dmin*f)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := solve(p)
				if err != nil {
					t.Fatalf("%s-%d/ladder%d/%gx: %v", fam, g.N(), li, f, err)
				}
				for _, c := range []float64{1e-16, 1e-12, 1e6} {
					name := fmt.Sprintf("%s-%d/ladder%d/%gx/×%g", fam, g.N(), li, f, c)
					got, err := solve(scaledProblem(t, p, c))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if relDiff(got.Energy, c*ref.Energy) > 1e-9 {
						t.Fatalf("%s: energy %.12g, %g × the unscaled %.12g", name, got.Energy, c, ref.Energy)
					}
				}
			}
		}
	}
}
