package plan

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// solverIDs is every solver core.SelectRoute can name, plus the overload
// reroute. The coverage test must reach each one.
var solverIDs = []string{
	"chain-closed-form", "fork-closed-form", "tree-equivalent-weight",
	"sp-equivalent-weight", "continuous-interior-point", "vdd-chain-closed-form",
	"vdd-lp", "discrete-sp-dp", "discrete-bb", "discrete-greedy", "discrete-roundup",
	"discrete-approx", "incremental-approx", "degraded-uniform",
}

// weighted builds a graph from explicit weights and edges.
func weighted(weights []float64, edges [][2]int) *graph.Graph {
	g := graph.New()
	for _, w := range weights {
		g.AddTask("", w)
	}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// classGraphs returns one small connected instance per structure class, in
// core.Class order. The tree and the diamond have uneven weights, so a
// deadline near the critical path makes the equivalent-weight algebra
// exceed smax = 2.
func classGraphs() []*graph.Graph {
	return []*graph.Graph{
		weighted([]float64{1.2, 0.6, 2.1, 1.4, 0.9}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		weighted([]float64{1.1, 0.8, 2.2, 1.5, 0.6}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}),
		weighted([]float64{0.7, 1.9, 1.3, 1.6}, [][2]int{{0, 3}, {1, 3}, {2, 3}}),
		weighted([]float64{1.5, 2, 0.7, 1.2, 2.5, 0.9}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}}),
		weighted([]float64{1, 2, 1.5, 1}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}),
		weighted([]float64{1.3, 0.8, 1.7, 1.1}, [][2]int{{0, 2}, {0, 3}, {1, 3}}),
	}
}

func routeModels(t *testing.T) []model.Model {
	t.Helper()
	modes := []float64{0.5, 1, 1.5, 2}
	cont, err1 := model.NewContinuous(2)
	vdd, err2 := model.NewVddHopping(modes)
	disc, err3 := model.NewDiscrete(modes)
	inc, err4 := model.NewIncremental(0.5, 2, 0.25)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	return []model.Model{cont, vdd, disc, inc}
}

var selectors = []string{AlgoAuto, AlgoBB, AlgoSP, AlgoGreedy, AlgoRoundUp, AlgoApprox}

// uniformRelease gives every task the same positive earliest start.
func uniformRelease(n int, r float64) []float64 {
	rel := make([]float64, n)
	for i := range rel {
		rel[i] = r
	}
	return rel
}

// coverage records which solver IDs and fallbacks the test reached.
type coverage map[string]bool

// check runs the answer checks on one solved single-component plan: the
// schedule verifies (and respects the release times), Stats.Algorithm is
// the routed ID, its fallback's, or an interior-point exit label, the plan
// states the answer's bound, and the energy matches an oracle that never
// goes through the routing table.
func (cov coverage) check(t *testing.T, name string, pl *Plan, sol *core.Solution, rel []float64) {
	t.Helper()
	p, m, cp := pl.prob, pl.Model, pl.Components[0]
	if err := p.Verify(sol, 1e-6); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, r := range rel {
		if sol.Schedule.Start[i] < r*(1-1e-9) {
			t.Fatalf("%s: task %d starts at %v before its release %v", name, i, sol.Schedule.Start[i], r)
		}
	}
	fallback := map[string]string{
		"tree-equivalent-weight": "continuous-interior-point",
		"sp-equivalent-weight":   "continuous-interior-point",
		"discrete-sp-dp":         "discrete-bb",
		"vdd-chain-closed-form":  "vdd-lp",
	}[cp.Solver]
	algo := sol.Stats.Algorithm
	ipExit := algo == "continuous-tight-deadline" || algo == "continuous-degenerate-band"
	runsIP := cp.Solver == "continuous-interior-point" || fallback == "continuous-interior-point"
	if algo != cp.Solver && (algo != fallback || fallback == "") && !(ipExit && runsIP) {
		t.Fatalf("%s: routed %s, answer labelled %s", name, cp.Solver, algo)
	}
	cov[cp.Solver] = true
	if algo == fallback {
		cov[cp.Solver+"→"+fallback] = true
	}
	if cp.BoundFactor != sol.Stats.BoundFactor {
		t.Fatalf("%s: plan bound %v, answer bound %v (%s)", name, cp.BoundFactor, sol.Stats.BoundFactor, cp.Solver)
	}

	copts := core.ContinuousOptions{Release: rel}
	dopts := core.DiscreteOptions{Release: rel}
	// numeric runs the interior point outside the routing table.
	numeric := func(opts core.ContinuousOptions) *core.Solution {
		t.Helper()
		ref, err := p.SolveContinuousNumeric(m.SMax, opts)
		if err != nil {
			t.Fatalf("%s: numeric oracle: %v", name, err)
		}
		return ref
	}
	// exact is the model's exact optimum: the interior point for
	// Continuous, branch-and-bound otherwise (on the Discrete model with
	// the same modes for Vdd-Hopping, an upper bound of its optimum).
	exact := func() float64 {
		t.Helper()
		if m.Kind == model.Continuous {
			return numeric(copts).Energy
		}
		dm := m
		var err error
		if m.Kind == model.VddHopping {
			if dm, err = model.NewDiscrete(m.Modes); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := p.SolveDiscreteBB(dm, dopts)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		return ref.Energy
	}
	within := func(ref, tol float64) {
		t.Helper()
		if math.Abs(sol.Energy-ref) > tol*math.Max(1, ref) {
			t.Fatalf("%s: %s energy %.12g, oracle %.12g", name, algo, sol.Energy, ref)
		}
	}
	switch {
	case algo == "chain-closed-form" || algo == "fork-closed-form" || algo == "tree-equivalent-weight" || algo == "sp-equivalent-weight":
		within(numeric(copts).Energy, 5e-4)
	case algo == "continuous-interior-point" || ipExit:
		// The interior point's dual lower bound certifies the answer; its
		// closed-form exits carry none and must match exactly.
		ref := numeric(copts)
		if ref.Stats.Algorithm != "continuous-interior-point" {
			within(ref.Energy, 1e-9)
		} else if lb := ref.Stats.LowerBound; !(lb > 0) || lb > sol.Energy*(1+1e-12) || sol.Energy-lb > 1e-9*sol.Energy {
			t.Fatalf("%s: %s energy %.12g, certified lower bound %.12g", name, algo, sol.Energy, lb)
		}
	case algo == "discrete-sp-dp" || algo == "discrete-bb":
		within(exact(), 1e-9)
	case algo == "vdd-chain-closed-form":
		ref, err := p.SolveVddHoppingOpts(m, core.VddOptions{Release: rel})
		if err != nil {
			t.Fatalf("%s: linear program oracle: %v", name, err)
		}
		within(ref.Energy, 1e-9)
	case algo == "vdd-lp":
		cont := numeric(copts)
		if disc := exact(); sol.Energy < cont.Energy*(1-1e-6) || sol.Energy > disc*(1+1e-9) {
			t.Fatalf("%s: vdd-lp energy %.12g outside [continuous %.12g, discrete %.12g]", name, sol.Energy, cont.Energy, disc)
		}
	default: // approximations, round-up, greedy, degraded
		opt := exact()
		if m.Kind == model.VddHopping {
			cont := numeric(core.ContinuousOptions{})
			if sol.Energy < cont.Energy*(1-1e-6) || sol.Energy > cp.BoundFactor*opt*(1+1e-9) {
				t.Fatalf("%s: %s energy %.12g outside [%.12g, %v×%.12g]", name, algo, sol.Energy, cont.Energy, cp.BoundFactor, opt)
			}
			return
		}
		if sol.Energy < opt*(1-1e-9) || (!math.IsInf(cp.BoundFactor, 1) && sol.Energy > cp.BoundFactor*opt*(1+1e-9)) {
			t.Fatalf("%s: %s energy %.12g outside [%.12g, %v×optimum]", name, algo, sol.Energy, opt, cp.BoundFactor)
		}
	}
}

// TestRouteCoverage walks every row of core.SelectRoute through the planner
// and requires each solver ID, and every documented fallback, to be reached
// and every answer to check out. Exhaustive: each model kind × selector ×
// class × residual either names a solver the planner runs or is rejected
// with ErrBadPlan. Then the warm (Replan), degraded, fallback, and Vdd
// head-release legs.
func TestRouteCoverage(t *testing.T) {
	cov := coverage{}
	models := routeModels(t)
	graphs := classGraphs()
	for class, g := range graphs {
		if got := core.Classify(g).Class; got != core.Class(class) {
			t.Fatalf("fixture %d classifies as %s, want %s", class, got, core.Class(class))
		}
	}

	for _, m := range models {
		for _, sel := range selectors {
			for class, g := range graphs {
				p := mustProblem(t, g, feasibleDeadline(t, g, 2, 1.6))
				for _, residual := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/residual=%v", m.Kind, sel, core.Class(class), residual)
					var rel []float64
					if residual {
						rel = uniformRelease(g.N(), 0.05*p.Deadline)
					}
					opts := core.PlannedOptions{Continuous: core.ContinuousOptions{Release: rel}, Discrete: core.DiscreteOptions{Release: rel}}
					r, rerr := core.SelectRoute(m, sel, core.Class(class), g.N(), opts)
					classless := sel == AlgoAuto && (m.Kind == model.VddHopping || m.Kind == model.Incremental) || residual
					if m.Kind == model.VddHopping && core.Class(class) == ClassChain {
						classless = false // SolveAuto tells Vdd chains apart, residual or not
					}
					if rerr == nil && classless {
						// SolveAuto skips classification on these rows.
						if dag, _ := core.SelectRoute(m, sel, ClassGeneralDAG, g.N(), opts); dag.Solver != r.Solver {
							t.Fatalf("%s: row depends on the class (%s vs %s on a general DAG)", name, r.Solver, dag.Solver)
						}
					}
					if r.Degradable && (sel != AlgoAuto || residual) {
						t.Fatalf("%s: forced and residual rows must not degrade", name)
					}
					pl, err := AnalyzeResidual(p, m, Options{Algorithm: sel}, Residual{Release: rel})
					if rerr != nil {
						if !errors.Is(err, ErrBadPlan) {
							t.Fatalf("%s: SelectRoute rejects (%v) but the planner returns %v", name, rerr, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if cp := pl.Components[0]; cp.Route != r || cp.Class != core.Class(class) {
						t.Fatalf("%s: planner routed %+v as %s, SelectRoute says %+v", name, cp.Route, cp.Class, r)
					}
					sol, err := pl.Execute()
					if err != nil {
						t.Fatalf("%s: Execute: %v", name, err)
					}
					cov.check(t, name, pl, sol, rel)

					// Warm: replan the same instance seeded from this answer.
					res := Residual{Release: rel, PrevProfiles: sol.Schedule.Profiles}
					if m.Kind != model.VddHopping {
						res = Residual{Release: rel}
						if res.PrevSpeeds, err = sol.Speeds(); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					wpl, err := AnalyzeResidual(p, m, Options{Algorithm: sel}, res)
					if err != nil {
						t.Fatalf("%s warm: %v", name, err)
					}
					rr, err := Replan(wpl, []ComponentID{0}, Observer{})
					if err != nil {
						t.Fatalf("%s warm: Replan: %v", name, err)
					}
					if rr.WarmSeeded != 1 {
						t.Fatalf("%s warm: %d warm-seeded components", name, rr.WarmSeeded)
					}
					cov.check(t, name+"/warm", wpl, rr.Solution, rel)
				}
			}
		}
	}

	// Degraded: every degradable auto row turns into the bounded uniform
	// heuristic; the chains' Continuous and Vdd-Hopping closed forms stay
	// put.
	for _, m := range models {
		for _, g := range []*graph.Graph{graphs[ClassGeneralDAG], graphs[ClassChain]} {
			p := mustProblem(t, g, feasibleDeadline(t, g, 2, 1.6))
			pl, err := Analyze(p, m, Options{Degraded: true})
			if err != nil {
				t.Fatal(err)
			}
			sol, err := pl.Execute()
			if err != nil {
				t.Fatalf("%s degraded: %v", m.Kind, err)
			}
			cov.check(t, fmt.Sprintf("%s/%s/degraded", m.Kind, pl.Components[0].Class), pl, sol, nil)
		}
	}

	// Fallbacks: a binding smax on a tree and on an SP graph.
	cont, disc := models[0], models[2]
	for _, class := range []core.Class{ClassTree, ClassSeriesParallel} {
		g := graphs[class]
		p := mustProblem(t, g, feasibleDeadline(t, g, 2, 1.02))
		pl, err := Analyze(p, cont, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := pl.Execute()
		if err != nil {
			t.Fatalf("%s fallback: %v", class, err)
		}
		cov.check(t, fmt.Sprintf("%s/%s/fallback", cont.Kind, class), pl, sol, nil)
	}
	// A frontier budget the Pareto DP cannot meet, through core.SolveRoute
	// on the component the planner routes to the DP. The deadline is
	// loose: at 1.02× the minimum the DP's context pruning keeps every
	// staircase at one step, within the budget.
	sp := graphs[ClassSeriesParallel]
	p := mustProblem(t, sp, feasibleDeadline(t, sp, 2, 1.6))
	pl, err := Analyze(p, disc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cp := pl.Components[0]; cp.Solver != "discrete-sp-dp" {
		t.Fatalf("Discrete SP component routed to %s", cp.Solver)
	}
	sol, err := p.SolveRoute(disc, "discrete-sp-dp", core.Classify(sp),
		core.PlannedOptions{Discrete: core.DiscreteOptions{MaxFrontier: 1}})
	if err != nil {
		t.Fatalf("Discrete SP frontier fallback: %v", err)
	}
	cov.check(t, "Discrete/series-parallel/fallback", pl, sol, nil)

	// A Vdd chain released at its head alone keeps the closed form; the
	// residual rows above release every task, so they fall back to the
	// linear program.
	vdd, chain := models[1], graphs[ClassChain]
	p = mustProblem(t, chain, feasibleDeadline(t, chain, 2, 1.6))
	rel := make([]float64, chain.N())
	rel[0] = 0.05 * p.Deadline // task 0 is the head
	pl, err = AnalyzeResidual(p, vdd, Options{}, Residual{Release: rel})
	if err != nil {
		t.Fatal(err)
	}
	sol, err = pl.Execute()
	if err != nil {
		t.Fatalf("Vdd chain head release: %v", err)
	}
	cov.check(t, "Vdd-Hopping/chain/head-release", pl, sol, rel)
	if sol.Stats.Algorithm != "vdd-chain-closed-form" {
		t.Fatalf("Vdd chain released at its head answered by %s", sol.Stats.Algorithm)
	}

	for _, id := range append(solverIDs,
		"tree-equivalent-weight→continuous-interior-point",
		"sp-equivalent-weight→continuous-interior-point",
		"discrete-sp-dp→discrete-bb",
		"vdd-chain-closed-form→vdd-lp") {
		if !cov[id] {
			t.Errorf("never reached %s", id)
		}
	}
}
