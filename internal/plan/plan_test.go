package plan

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/resilience"
)

// disjointUnion places the given graphs side by side on one task-ID space
// (tasks of gs[k] shifted past everything before it). The result has one
// weakly-connected component per connected input.
func disjointUnion(gs ...*graph.Graph) *graph.Graph {
	u := graph.New()
	for _, g := range gs {
		off := u.N()
		for i := 0; i < g.N(); i++ {
			u.AddTask(g.Name(i), g.Weight(i))
		}
		for _, e := range g.Edges() {
			u.MustAddEdge(off+e[0], off+e[1])
		}
	}
	return u
}

func mustProblem(t testing.TB, g *graph.Graph, deadline float64) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(g, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// feasibleDeadline returns a deadline a bit looser than the top-speed
// critical path, so every model can meet it.
func feasibleDeadline(t testing.TB, g *graph.Graph, smax, slack float64) float64 {
	t.Helper()
	dmin, err := g.MinimalDeadline(smax)
	if err != nil {
		t.Fatal(err)
	}
	return dmin * slack
}

// nGraph is the canonical minimal non-series-parallel order: the "N" of
// edges 0→2, 0→3, 1→3 (its own transitive reduction, connected, yet no
// series or parallel cut exists).
func nGraph() *graph.Graph {
	g := graph.New()
	g.AddTasks(4, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 3)
	return g
}

func TestClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := graph.ConstantWeights(1)
	spG, _ := graph.RandomSP(rng, 9, w)

	cases := []struct {
		name string
		g    *graph.Graph
		want Class
	}{
		{"chain", graph.Chain(rng, 5, w), ClassChain},
		{"single task", graph.Chain(rng, 1, w), ClassChain},
		{"fork", graph.Fork(rng, 4, w), ClassFork},
		{"join", graph.Join(rng, 4, w), ClassJoin},
		{"fork-join", graph.ForkJoin(rng, 3, 2, w), ClassSeriesParallel},
		{"N graph", nGraph(), ClassGeneralDAG},
	}
	for _, tc := range cases {
		if got := core.Classify(tc.g).Class; got != tc.want {
			t.Errorf("%s: Classify = %s, want %s", tc.name, got, tc.want)
		}
	}

	// A proper out-tree (some node with ≥2 children, not a star) is a tree.
	tree := graph.New()
	tree.AddTasks(6, 1)
	tree.MustAddEdge(0, 1)
	tree.MustAddEdge(0, 2)
	tree.MustAddEdge(1, 3)
	tree.MustAddEdge(1, 4)
	tree.MustAddEdge(2, 5)
	if got := core.Classify(tree).Class; got != ClassTree {
		t.Errorf("out-tree: Classify = %s, want %s", got, ClassTree)
	}
	// Random SP graphs classify as series-parallel or one of its subclasses.
	if got := core.Classify(spG).Class; got == ClassGeneralDAG {
		t.Errorf("random SP instance classified as %s", got)
	}
}

func TestAnalyzeRejections(t *testing.T) {
	g := graph.Chain(rand.New(rand.NewSource(2)), 3, graph.ConstantWeights(1))
	p := mustProblem(t, g, 10)
	cont, _ := model.NewContinuous(2)
	disc, _ := model.NewDiscrete([]float64{1, 2})

	if _, err := Analyze(p, cont, Options{Algorithm: "quantum"}); !errors.Is(err, ErrBadPlan) {
		t.Errorf("unknown algorithm: err = %v, want ErrBadPlan", err)
	}
	if _, err := Analyze(p, cont, Options{Algorithm: AlgoBB}); !errors.Is(err, ErrBadPlan) {
		t.Errorf("bb on continuous: err = %v, want ErrBadPlan", err)
	}
	pd := mustProblem(t, nGraph(), 100)
	if _, err := Analyze(pd, disc, Options{Algorithm: AlgoSP}); !errors.Is(err, ErrBadPlan) {
		t.Errorf("sp on non-SP graph: err = %v, want ErrBadPlan", err)
	}
}

func TestPlanShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := graph.UniformWeights(0.5, 3)
	g := disjointUnion(
		graph.Chain(rng, 4, w),
		graph.Fork(rng, 3, w),
		graph.GnpDAG(rng, 6, 0.8, w),
	)
	p := mustProblem(t, g, feasibleDeadline(t, g, 2, 1.5))
	cont, _ := model.NewContinuous(2)
	pl, err := Analyze(p, cont, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Components) != 3 {
		t.Fatalf("%d components, want 3:\n%s", len(pl.Components), pl)
	}
	seen := make([]bool, g.N())
	for _, cp := range pl.Components {
		if cp.Solver == "" || cp.Rationale == "" {
			t.Fatalf("component missing routing: %+v", cp)
		}
		for _, id := range cp.Tasks {
			if seen[id] {
				t.Fatalf("task %d planned twice", id)
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("task %d missing from the plan", id)
		}
	}
	if pl.Components[0].Class != ClassChain || pl.Components[0].Solver != "chain-closed-form" {
		t.Errorf("chain component routed as %+v", pl.Components[0])
	}
	if !pl.Exact() {
		t.Errorf("auto continuous plan should be exact:\n%s", pl)
	}
	if s := pl.String(); !strings.Contains(s, "chain") || !strings.Contains(s, "3 component(s)") {
		t.Errorf("plan rendering:\n%s", s)
	}
}

// directDispatch is the pre-planner solve path: one monolithic call to the
// model's canonical solver, exactly what internal/service used to do.
func directDispatch(p *core.Problem, m model.Model, k int) (*core.Solution, error) {
	switch m.Kind {
	case model.Continuous:
		return p.SolveContinuous(m.SMax, core.ContinuousOptions{})
	case model.VddHopping:
		return p.SolveVddHopping(m)
	case model.Discrete:
		return p.SolveDiscreteBB(m, core.DiscreteOptions{})
	case model.Incremental:
		return p.SolveIncrementalApprox(m, k, core.ContinuousOptions{})
	}
	panic("unreachable")
}

// randomStructured draws one instance from the named family.
func randomStructured(rng *rand.Rand, family string) *graph.Graph {
	w := graph.UniformWeights(0.5, 3)
	switch family {
	case "chain":
		return graph.Chain(rng, 2+rng.Intn(7), w)
	case "fork":
		return graph.Fork(rng, 2+rng.Intn(5), w)
	case "tree":
		return graph.RandomOutTree(rng, 3+rng.Intn(6), w)
	case "sp":
		g, _ := graph.RandomSP(rng, 3+rng.Intn(6), w)
		return g
	case "gnp":
		return graph.GnpDAG(rng, 4+rng.Intn(4), 0.5, w)
	case "disconnected":
		parts := make([]*graph.Graph, 2+rng.Intn(2))
		for i := range parts {
			parts[i] = randomStructured(rng, []string{"chain", "fork", "tree", "sp", "gnp"}[rng.Intn(5)])
		}
		return disjointUnion(parts...)
	}
	panic("unknown family " + family)
}

// TestPlanMatchesDirectDispatch is the planner's core property: routing a
// solve through Analyze + Execute must reproduce the energy of the
// monolithic direct dispatch within 1e-9 relative, across every structure
// family (including disconnected unions) and all four energy models — and
// the merged schedule must pass independent verification on the original
// graph.
func TestPlanMatchesDirectDispatch(t *testing.T) {
	const relTol = 1e-9
	rng := rand.New(rand.NewSource(20260730))
	modes := []float64{0.5, 1.0, 1.5, 2.0}
	cont, _ := model.NewContinuous(2)
	vdd, _ := model.NewVddHopping(modes)
	disc, _ := model.NewDiscrete(modes)
	inc, _ := model.NewIncremental(0.5, 2, 0.25)
	models := []model.Model{cont, vdd, disc, inc}

	families := []string{"chain", "fork", "tree", "sp", "gnp", "disconnected"}
	for _, family := range families {
		for trial := 0; trial < 6; trial++ {
			g := randomStructured(rng, family)
			if g.N() > 14 {
				continue // keep the exact discrete baseline tractable
			}
			deadline := feasibleDeadline(t, g, 2, 1.3+rng.Float64())
			p := mustProblem(t, g, deadline)
			for _, m := range models {
				pl, err := Analyze(p, m, Options{K: 4})
				if err != nil {
					t.Fatalf("%s/%s trial %d: Analyze: %v", family, m.Kind, trial, err)
				}
				planned, err := pl.Execute()
				if err != nil {
					t.Fatalf("%s/%s trial %d: Execute: %v\n%s", family, m.Kind, trial, err, pl)
				}
				direct, err := directDispatch(p, m, 4)
				if err != nil {
					t.Fatalf("%s/%s trial %d: direct dispatch: %v", family, m.Kind, trial, err)
				}
				if diff := math.Abs(planned.Energy - direct.Energy); diff > relTol*direct.Energy {
					t.Fatalf("%s/%s trial %d (n=%d): planned %.12g vs direct %.12g (rel %.3g)\n%s",
						family, m.Kind, trial, g.N(), planned.Energy, direct.Energy,
						diff/direct.Energy, pl)
				}
				if err := p.Verify(planned, 1e-6); err != nil {
					t.Fatalf("%s/%s trial %d: merged solution fails verification: %v",
						family, m.Kind, trial, err)
				}
			}
		}
	}
}

// TestForcedSelectorsOnComponents: forced algorithms must also route through
// the component split and still match their monolithic counterparts.
func TestForcedSelectorsOnComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := graph.UniformWeights(0.5, 3)
	spA, _ := graph.RandomSP(rng, 5, w)
	spB, _ := graph.RandomSP(rng, 4, w)
	// RandomSP may itself be a top-level parallel composition (disconnected),
	// so the expected component count comes from the union graph.
	g := disjointUnion(spA, spB, graph.Chain(rng, 3, w))
	wantComps := len(g.WeaklyConnectedComponents())
	if wantComps < 3 {
		t.Fatalf("workload degenerated to %d components", wantComps)
	}
	deadline := feasibleDeadline(t, g, 2, 1.6)
	p := mustProblem(t, g, deadline)
	disc, _ := model.NewDiscrete([]float64{0.5, 1, 2})

	for _, algo := range []string{AlgoBB, AlgoSP, AlgoGreedy, AlgoRoundUp, AlgoApprox} {
		pl, err := Analyze(p, disc, Options{Algorithm: algo, K: 4})
		if err != nil {
			t.Fatalf("%s: Analyze: %v", algo, err)
		}
		if len(pl.Components) != wantComps {
			t.Fatalf("%s: %d components, want %d", algo, len(pl.Components), wantComps)
		}
		sol, err := pl.Execute()
		if err != nil {
			t.Fatalf("%s: Execute: %v", algo, err)
		}
		if err := p.Verify(sol, 1e-6); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		// Exact selectors must agree with the monolithic exact optimum.
		if algo == AlgoBB || algo == AlgoSP {
			direct, err := p.SolveDiscreteBB(disc, core.DiscreteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(sol.Energy - direct.Energy); diff > 1e-9*direct.Energy {
				t.Fatalf("%s: planned %.12g vs exact %.12g", algo, sol.Energy, direct.Energy)
			}
		}
	}
}

// TestExecuteSolverPanic pins the solver fault site on Execute: every
// component solve passes through it, so a panic armed there fails Execute
// with a recovered-panic error instead of crashing the caller — on a
// connected plan as well as a disconnected one — and the plan stays
// usable once the fault is spent.
func TestExecuteSolverPanic(t *testing.T) {
	cont, _ := model.NewContinuous(2)
	chain := func() *graph.Graph {
		g := graph.New()
		g.AddTasks(3, 1)
		g.MustAddEdge(0, 1)
		g.MustAddEdge(1, 2)
		return g
	}
	for _, g := range []*graph.Graph{chain(), disjointUnion(chain(), nGraph(), chain())} {
		pl, err := Analyze(mustProblem(t, g, feasibleDeadline(t, g, 2, 1.5)), cont, Options{})
		if err != nil {
			t.Fatal(err)
		}
		resilience.Arm(resilience.NewFaults(1, map[resilience.Site]resilience.SiteFaults{
			resilience.SiteSolver: {PanicRate: 1, Times: 1},
		}))
		_, err = pl.Execute()
		resilience.Disarm()
		if !errors.Is(err, resilience.ErrPanic) {
			t.Fatalf("%d components: Execute = %v, want a recovered panic", len(pl.Components), err)
		}
		if _, err := pl.Execute(); err != nil {
			t.Fatalf("%d components: Execute after the fault: %v", len(pl.Components), err)
		}
	}
}
