package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/model"
)

func vddModel(t *testing.T, modes ...float64) model.Model {
	t.Helper()
	m, err := model.NewVddHopping(modes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVddSingleTaskMatchesIshiharaYasuura(t *testing.T) {
	// One task, cost 2, deadline 2, modes {0.5, 2}: the required average
	// speed is 1. Optimal: mix the two bracketing modes to fill the deadline
	// exactly: 0.5·x + 2·(2-x) = 2 → x = 4/3 at 0.5, 2/3 at 2.
	// E = 0.125·4/3 + 8·2/3 = 1/6 + 16/3 = 5.5.
	g := graph.New()
	g.AddTask("only", 2)
	p, _ := NewProblem(g, 2)
	sol, err := p.SolveVddHopping(vddModel(t, 0.5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(sol.Energy, 5.5) > 1e-9 {
		t.Fatalf("vdd energy %v, want 5.5", sol.Energy)
	}
	if err := p.Verify(sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	// The profile uses exactly the two modes.
	if n := sol.Schedule.Profiles[0].DistinctSpeeds(1e-9); n != 2 {
		t.Fatalf("distinct speeds = %d, want 2", n)
	}
}

func TestVddExactModeNeedsNoHopping(t *testing.T) {
	// Required speed exactly a mode: constant execution is optimal.
	g := graph.New()
	g.AddTask("only", 2)
	p, _ := NewProblem(g, 2) // speed 1 needed
	sol, err := p.SolveVddHopping(vddModel(t, 0.5, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(sol.Energy, 2) > 1e-9 { // w·s² = 2
		t.Fatalf("energy %v, want 2", sol.Energy)
	}
}

func TestVddChainUsesWholeDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Chain(rng, 4, graph.UniformWeights(1, 3))
	dmin, _ := g.MinimalDeadline(2)
	D := dmin * 1.7
	p, _ := NewProblem(g, D)
	sol, err := p.SolveVddHopping(vddModel(t, 0.5, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(sol, 1e-6); err != nil {
		t.Fatal(err)
	}
	// LP optimum saturates the deadline (convex energy, faster = costlier).
	if sol.Schedule.Makespan < D*0.999 {
		t.Fatalf("vdd leaves slack: %v < %v", sol.Schedule.Makespan, D)
	}
}

func TestVddSandwichedByContinuousAndDiscrete(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		eg := randomExecGraph(t, rng, 9, 3)
		modes := []float64{0.6, 1.1, 1.7, 2.4}
		dmin, _ := eg.MinimalDeadline(modes[len(modes)-1])
		D := dmin * (1.2 + rng.Float64())
		p, _ := NewProblem(eg, D)

		cont, err := p.SolveContinuous(modes[len(modes)-1], ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		vm, _ := model.NewVddHopping(modes)
		vdd, err := p.SolveVddHopping(vm)
		if err != nil {
			t.Fatal(err)
		}
		dm, _ := model.NewDiscrete(modes)
		disc, err := p.SolveDiscreteBB(dm, DiscreteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The paper's hierarchy: continuous relaxes vdd relaxes discrete.
		if cont.Energy > vdd.Energy*(1+1e-6) {
			t.Fatalf("trial %d: E_cont %v > E_vdd %v", trial, cont.Energy, vdd.Energy)
		}
		if vdd.Energy > disc.Energy*(1+1e-6) {
			t.Fatalf("trial %d: E_vdd %v > E_disc %v", trial, vdd.Energy, disc.Energy)
		}
		if err := p.Verify(vdd, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestVddTwoModeUpperBoundsLP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		eg := randomExecGraph(t, rng, 8, 2)
		modes := []float64{0.5, 1, 1.5, 2}
		dmin, _ := eg.MinimalDeadline(2)
		D := dmin * (1.3 + rng.Float64())
		p, _ := NewProblem(eg, D)
		vm, _ := model.NewVddHopping(modes)
		lpSol, err := p.SolveVddHopping(vm)
		if err != nil {
			t.Fatal(err)
		}
		twoMode, err := p.SolveVddTwoMode(vm, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(twoMode, 1e-6); err != nil {
			t.Fatalf("two-mode infeasible: %v", err)
		}
		if lpSol.Energy > twoMode.Energy*(1+1e-6) {
			t.Fatalf("trial %d: LP %v above two-mode heuristic %v", trial, lpSol.Energy, twoMode.Energy)
		}
		// Every two-mode profile uses at most 2 distinct speeds.
		for i, prof := range twoMode.Schedule.Profiles {
			if prof.DistinctSpeeds(1e-9) > 2 {
				t.Fatalf("task %d uses %d speeds", i, prof.DistinctSpeeds(1e-9))
			}
		}
	}
}

func TestVddInfeasible(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 1) // cpw 8, top mode 2 → dmin 4
	if _, err := p.SolveVddHopping(vddModel(t, 1, 2)); err == nil {
		t.Fatal("accepted infeasible vdd instance")
	}
}

func TestVddWrongKind(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 100)
	dm, _ := model.NewDiscrete([]float64{1, 2})
	if _, err := p.SolveVddHopping(dm); err == nil {
		t.Fatal("accepted discrete model")
	}
	cm, _ := model.NewContinuous(2)
	if _, err := p.SolveVddTwoMode(cm, ContinuousOptions{}); err == nil {
		t.Fatal("accepted continuous model")
	}
}

// Property: Vdd-Hopping can always emulate the continuous optimum arbitrarily
// well when modes are dense around the needed speeds, so with a fine mode
// grid E_vdd/E_cont stays within a few percent.
func TestVddApproachesContinuousWithDenseModes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eg := randomExecGraph(t, rng, 8, 2)
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := NewProblem(eg, dmin*1.5)
	cont, err := p.SolveContinuous(2, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var modes []float64
	for s := 0.2; s <= 2.0001; s += 0.1 {
		modes = append(modes, s)
	}
	vm, _ := model.NewVddHopping(modes)
	vdd, err := p.SolveVddHopping(vm)
	if err != nil {
		t.Fatal(err)
	}
	ratio := vdd.Energy / cont.Energy
	if ratio < 1-1e-6 || ratio > 1.05 {
		t.Fatalf("vdd/cont ratio = %v, want within [1, 1.05]", ratio)
	}
	if math.IsNaN(ratio) {
		t.Fatal("NaN ratio")
	}
}

// vddLadders are the mode ladders the chain closed form is checked on: two
// modes, three, and the twelve-mode DVFS ladder of the reclaim scenarios.
var vddLadders = [][]float64{
	{0.5, 2},
	{0.5, 1, 2},
	{0.5, 0.636, 0.772, 0.909, 1.045, 1.181, 1.318, 1.454, 1.59, 1.727, 1.863, 2},
}

// TestVddChainClosedFormMatchesLP checks the chain closed form against the
// linear program, its oracle, across chain lengths × ladders × the place of
// s* = W/(D − r) on the ladder (below the slowest mode, on a mode, between
// two modes, at the top mode) × no release or a release on the head.
func TestVddChainClosedFormMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, modes := range vddLadders {
		vm := vddModel(t, modes...)
		targets := map[string]float64{
			"below":   0.8 * modes[0],
			"on-mode": modes[len(modes)/2],
			"between": (modes[0] + modes[1]) / 2,
			"top":     modes[len(modes)-1],
		}
		for n := 1; n <= 64; n++ {
			g := graph.Chain(rng, n, graph.UniformWeights(0.5, 3))
			order, _ := g.IsChain()
			w := g.TotalWeight()
			for where, s := range targets {
				for _, head := range []float64{0, 0.3 * w} {
					p, err := NewProblem(g, head+w/s)
					if err != nil {
						t.Fatal(err)
					}
					var rel []float64
					if head > 0 {
						rel = make([]float64, n)
						rel[order[0]] = head
					}
					name := fmt.Sprintf("%d modes/n=%d/%s/head=%v", len(modes), n, where, head)
					cf, err := p.SolveVddChain(vm, VddOptions{Release: rel})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					ref, err := p.SolveVddHoppingOpts(vm, VddOptions{Release: rel})
					if err != nil {
						t.Fatalf("%s: LP: %v", name, err)
					}
					if relDiff(cf.Energy, ref.Energy) > 1e-9 {
						t.Fatalf("%s: closed form %.15g, LP %.15g", name, cf.Energy, ref.Energy)
					}
					if err := p.Verify(cf, 1e-9); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if start := cf.Schedule.Start[order[0]]; start < head {
						t.Fatalf("%s: head starts at %v before its release %v", name, start, head)
					}
				}
			}
		}
	}
}

// fullVddProgram is the Theorem 3 program with every row: a start row and
// a deadline row for each task. It is the oracle of vddProgram, which
// leaves out the rows the others imply.
func fullVddProgram(p *Problem, m model.Model, release []float64) *lp.Problem {
	n, nm := p.G.N(), m.NumModes()
	nvar := n*nm + n
	tIdx := func(i int) int { return n*nm + i }
	c := make([]float64, nvar)
	for i := 0; i < n; i++ {
		for j, s := range m.Modes {
			c[i*nm+j] = model.Power(s)
		}
	}
	prob := lp.NewProblem(c)
	for i := 0; i < n; i++ {
		row := make([]float64, nvar)
		copy(row[i*nm:], m.Modes)
		prob.AddConstraint(row, lp.EQ, p.G.Weight(i))
	}
	for _, e := range p.G.Edges() {
		row := make([]float64, nvar)
		row[tIdx(e[0])] = 1
		for j := 0; j < nm; j++ {
			row[e[1]*nm+j] = 1
		}
		row[tIdx(e[1])] = -1
		prob.AddConstraint(row, lp.LE, 0)
	}
	for i := 0; i < n; i++ {
		row := make([]float64, nvar)
		for j := 0; j < nm; j++ {
			row[i*nm+j] = 1
		}
		row[tIdx(i)] = -1
		rhs := 0.0
		if release != nil {
			rhs = -release[i]
		}
		prob.AddConstraint(row, lp.LE, rhs)
	}
	for i := 0; i < n; i++ {
		row := make([]float64, nvar)
		row[tIdx(i)] = 1
		prob.AddConstraint(row, lp.LE, p.Deadline)
	}
	return prob
}

// classFixtures are the route-coverage instances, one per structure class:
// a chain, a fork, a join, a tree, a series-parallel diamond and a general
// DAG.
func classFixtures() []*graph.Graph {
	build := func(weights []float64, edges [][2]int) *graph.Graph {
		g := graph.New()
		for _, w := range weights {
			g.AddTask("", w)
		}
		for _, e := range edges {
			g.MustAddEdge(e[0], e[1])
		}
		return g
	}
	return []*graph.Graph{
		build([]float64{1.2, 0.6, 2.1, 1.4, 0.9}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		build([]float64{1.1, 0.8, 2.2, 1.5, 0.6}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}),
		build([]float64{0.7, 1.9, 1.3, 1.6}, [][2]int{{0, 3}, {1, 3}, {2, 3}}),
		build([]float64{1.5, 2, 0.7, 1.2, 2.5, 0.9}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}}),
		build([]float64{1, 2, 1.5, 1}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}),
		build([]float64{1.3, 0.8, 1.7, 1.1}, [][2]int{{0, 2}, {0, 3}, {1, 3}}),
	}
}

// TestVddTrimmedProgramMatchesFull: leaving out the implied start and
// deadline rows changes neither the feasible set nor the optimum, with or
// without release times. The interior releases bind: each non-source task
// is released halfway to the latest start its tail allows at the top mode.
func TestVddTrimmedProgramMatchesFull(t *testing.T) {
	for _, modes := range [][]float64{{0.5, 1, 1.5, 2}, vddLadders[2]} {
		vm := vddModel(t, modes...)
		smax := modes[len(modes)-1]
		for _, g := range classFixtures() {
			dmin, _ := g.MinimalDeadline(smax)
			p, err := NewProblem(g, 1.6*dmin)
			if err != nil {
				t.Fatal(err)
			}
			order, err := g.TopoOrder()
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			tail := make([]float64, n) // heaviest path weight from each task on
			for k := n - 1; k >= 0; k-- {
				v := order[k]
				for _, s := range g.Succ(v) {
					tail[v] = math.Max(tail[v], tail[s])
				}
				tail[v] += g.Weight(v)
			}
			uniform, sources, interior := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				uniform[i] = 0.05 * p.Deadline
				if len(g.Pred(i)) == 0 {
					sources[i] = 0.05 * p.Deadline
				} else {
					interior[i] = 0.5 * (p.Deadline - tail[i]/smax)
				}
			}
			for relName, rel := range map[string][]float64{"none": nil, "uniform": uniform, "sources": sources, "interior": interior} {
				name := fmt.Sprintf("%d modes/%s/release=%s", len(modes), Classify(g).Class, relName)
				full, err := lp.Solve(fullVddProgram(p, vm, rel), lp.Options{})
				if err != nil || full.Status != lp.Optimal {
					t.Fatalf("%s: full program: %+v %v", name, full, err)
				}
				trimmed, err := lp.Solve(p.vddProgram(vm, rel), lp.Options{})
				if err != nil || trimmed.Status != lp.Optimal {
					t.Fatalf("%s: trimmed program: %+v %v", name, trimmed, err)
				}
				if relDiff(trimmed.Objective, full.Objective) > 1e-12 {
					t.Fatalf("%s: trimmed optimum %.17g, full %.17g", name, trimmed.Objective, full.Objective)
				}
			}
		}
	}
}
