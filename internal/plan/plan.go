// Package plan is the structure-aware solve planner: it analyzes an
// execution graph — weakly-connected components first, then a per-component
// classification as chain / fork / join / tree / series-parallel / general
// DAG — and routes each component to the cheapest solver the paper's
// complexity landscape (Theorems 1–5) admits, producing an explainable Plan
// before any solving happens.
//
// One component executor runs every solve — Plan.Execute, residual
// replans (Replan), and Solve, the serving layer's entry — as a pipeline
// on internal/pipeline: split → route → solve → merge, with the route
// stage ahead of a bounded pool of solver workers and panics contained by
// the stage runner. The merge stitches the component solutions back by
// task ID (energy is additive across components sharing the deadline).
//
// The routing table itself is core.SelectRoute — the one place that maps
// model × selector × class × residual to a solver — and core.SolveRoute
// runs each row; the planner adds the structure cache, the explanation,
// overload degradation, and the executor.
package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// Algorithm selectors accepted by Options.Algorithm (see core.SelectRoute).
const (
	AlgoAuto    = core.AlgoAuto
	AlgoBB      = core.AlgoBB
	AlgoSP      = core.AlgoSP
	AlgoGreedy  = core.AlgoGreedy
	AlgoRoundUp = core.AlgoRoundUp
	AlgoApprox  = core.AlgoApprox
)

// ErrBadPlan tags every analysis-time rejection (unsupported model/algorithm
// combination, non-SP graph under the sp selector) so transport layers can
// classify it as a caller mistake.
var ErrBadPlan = errors.New("plan: invalid request")

func badPlan(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadPlan, fmt.Sprintf(format, args...))
}

// Options parameterizes Analyze and the plan's execution.
type Options struct {
	// Algorithm forces a solving procedure (see Algo constants); empty means
	// auto.
	Algorithm string
	// K is the Theorem 5 accuracy parameter (default 4).
	K int
	// Workers bounds concurrent component solves (default GOMAXPROCS).
	Workers int
	// Continuous tunes the interior-point solver.
	Continuous core.ContinuousOptions
	// Discrete tunes the exact discrete solvers.
	Discrete core.DiscreteOptions
	// Degraded routes components that would need an expensive solver
	// (interior point, branch-and-bound, the LP) to the bounded uniform
	// heuristic instead — the serving layer's overload trade of optimality
	// for availability. Exact closed forms stay exact (they are already
	// cheap), forced algorithm selectors are honored, and every degraded
	// component carries its a-priori bound in BoundFactor.
	Degraded bool
	// Structures, when non-nil, amortizes the structural work across
	// requests: component classification (and its SP-recognition
	// artifacts) is cached per structural fingerprint, and the continuous
	// solver's compiled kernels are cached through the embedded
	// core.KernelCache (threaded into Continuous.Kernels automatically
	// unless one is already set). Safe for concurrent use and shared by
	// the service engine, streaming pipeline, and reclaim sessions.
	Structures *StructureCache
}

// Class is the structural classification of one component (core.Classify).
type Class = core.Class

// The structure classes, as core defines them.
const (
	ClassChain          = core.ClassChain
	ClassFork           = core.ClassFork
	ClassJoin           = core.ClassJoin
	ClassTree           = core.ClassTree
	ClassSeriesParallel = core.ClassSeriesParallel
	ClassGeneralDAG     = core.ClassGeneralDAG
)

// ComponentPlan is the routing decision for one weakly-connected component:
// its core.Route row (solver, rationale, bound, cost), with the rationale
// and bound of the uniform heuristic when overload degraded it.
type ComponentPlan struct {
	// Tasks lists the component's original task IDs.
	Tasks []int
	// Class is the recognized structure.
	Class Class
	core.Route
	// Degraded marks a component rerouted to the bounded uniform heuristic
	// under overload; BoundFactor then carries the a-priori guarantee of
	// what the caller got instead of the optimum.
	Degraded bool

	// shape is the classification, SP expression included, SolveRoute reuses.
	shape core.Shape
	// release holds component-local earliest starts on residual plans
	// (nil when every task may start at 0).
	release []float64
	// warm is the component-local warm seed sliced from the residual's
	// previous solution (nil = cold solve).
	warm *core.WarmStart
	// reusable marks a component whose previous solution can be replayed
	// verbatim by Replan when the component is not dirty.
	reusable bool
}

// Plan is the full solve plan for one instance: the per-component routing
// plus everything Execute needs to run it.
type Plan struct {
	// Algorithm is the requested selector (auto or forced).
	Algorithm string
	// Model is the energy model the plan routes for.
	Model model.Model
	// Deadline applies to every component.
	Deadline float64
	// Components holds one routing decision per weakly-connected component.
	Components []ComponentPlan
	// Workers bounds concurrent component solves during Execute and Replan
	// (default GOMAXPROCS).
	Workers int

	rt    *Router
	prob  *core.Problem
	comps []core.Component
	// res is non-nil on residual plans (AnalyzeResidual): the full-problem
	// release vector and previous solution behind the per-component slices.
	res *Residual
}

// Router is the per-component half of the planner: a validated
// model/algorithm/options bundle that classifies and routes one component at
// a time (Route) and dispatches a routed component to its solver (Solve).
// Analyze is a Router applied to every component of a split problem at once;
// Solve drives it from the executor's route stage instead, so each
// component's plan and solution surface as soon as they exist rather than
// after the whole instance finishes.
//
// A Router is immutable after NewRouter and safe for concurrent use.
type Router struct {
	m        model.Model
	algo     string
	opts     core.PlannedOptions
	structs  *StructureCache
	degraded bool
}

// NewRouter validates the model/algorithm combination (the same checks
// Analyze applies) and returns a reusable router.
func NewRouter(m model.Model, opts Options) (*Router, error) {
	algo := strings.ToLower(opts.Algorithm)
	if algo == "" {
		algo = AlgoAuto
	}
	if err := core.CheckSelector(m.Kind, algo); err != nil {
		return nil, badPlan("%v", err)
	}
	rt := &Router{m: m, algo: algo, structs: opts.Structures, degraded: opts.Degraded,
		opts: core.PlannedOptions{K: opts.K, Continuous: opts.Continuous, Discrete: opts.Discrete}}
	if opts.Structures != nil && rt.opts.Continuous.Kernels == nil {
		rt.opts.Continuous.Kernels = opts.Structures.Kernels()
	}
	return rt, nil
}

// options returns the router's solver options carrying one component's
// release times and warm seed.
func (rt *Router) options(release []float64, warm *core.WarmStart) core.PlannedOptions {
	o := rt.opts
	o.Continuous.Release, o.Continuous.Warm = release, warm
	o.Discrete.Release, o.Discrete.Warm = release, warm
	return o
}

// Route classifies one component (through the structure cache when the
// router has one) and looks its row up in core.SelectRoute. rel carries
// component-local release times on residual plans (nil otherwise). Rows the
// table rejects — the sp selector on a general DAG or a residual
// component — fail with ErrBadPlan, exactly as Analyze fails for whole
// plans.
func (rt *Router) Route(c core.Component, rel []float64) (ComponentPlan, error) {
	g := c.Prob.G
	var sh core.Shape
	if rt.structs != nil {
		sh = rt.structs.classify(g)
	} else {
		sh = core.Classify(g)
	}
	r, err := core.SelectRoute(rt.m, rt.algo, sh.Class, g.N(), rt.options(rel, nil))
	if err != nil {
		return ComponentPlan{}, badPlan("%v (component {%s})", err, idRange(c.Tasks))
	}
	if r.Solver == "continuous-interior-point" {
		r.Rationale += dedupeNote(g)
	}
	cp := ComponentPlan{Tasks: c.Tasks, Class: sh.Class, Route: r, shape: sh, release: rel}
	if rt.degraded && r.Degradable {
		rt.degrade(g, &cp)
	}
	return cp, nil
}

// degrade reroutes a degradable component to the uniform-speed heuristic.
// The bound comes from the paper's critical-path relaxation: no schedule
// beats the critical path run at its slowest feasible uniform speed, so
// OPT ≥ CPW³/D², while running everything at CPW/D costs W·CPW²/D² — a
// ratio of at most W/CPW for the continuous model, times the
// (1+maxgap/smin)² rounding factor when speeds must round up to a discrete
// set.
func (rt *Router) degrade(g *graph.Graph, cp *ComponentPlan) {
	w := g.TotalWeight()
	cpw, err := g.CriticalPathWeight()
	if err != nil || cpw <= 0 || w <= 0 {
		return
	}
	factor := w / cpw
	if rt.m.Kind != model.Continuous {
		if rt.m.SMin <= 0 {
			return
		}
		r := 1 + rt.m.MaxGap()/rt.m.SMin
		factor *= r * r
	}
	cp.Rationale = fmt.Sprintf("overload degraded mode: uniform speed CPW/D instead of %s, within %.4g× of optimal (W/CPW critical-path bound)", cp.Solver, factor)
	cp.Solver = "degraded-uniform"
	cp.Degraded = true
	cp.BoundFactor = factor
	cp.Cost = float64(g.N())
}

// Analyze builds the solve plan for p under m: validate the model/algorithm
// combination, split p into weakly-connected components, classify each, and
// route it. No solving happens; Execute runs the plan.
func Analyze(p *core.Problem, m model.Model, opts Options) (*Plan, error) {
	return analyze(p, m, opts, nil)
}

// analyze is the shared implementation behind Analyze and AnalyzeResidual.
func analyze(p *core.Problem, m model.Model, opts Options, res *Residual) (*Plan, error) {
	pl, err := newPlan(p, m, opts, res)
	if err != nil {
		return nil, err
	}
	for i, c := range pl.comps {
		cp, err := pl.rt.Route(c, res.sliceRelease(c.Tasks))
		if err != nil {
			return nil, err
		}
		cp.warm = res.sliceWarm(c.Tasks, m)
		cp.reusable = res.reusable(c.Tasks, m)
		pl.Components[i] = cp
	}
	return pl, nil
}

// newPlan validates the model/algorithm combination and splits p into its
// weakly-connected components, leaving every component unrouted.
func newPlan(p *core.Problem, m model.Model, opts Options, res *Residual) (*Plan, error) {
	rt, err := NewRouter(m, opts)
	if err != nil {
		return nil, err
	}
	comps, err := p.SplitComponents()
	if err != nil {
		return nil, err
	}
	return &Plan{
		Algorithm:  rt.algo,
		Model:      m,
		Deadline:   p.Deadline,
		Components: make([]ComponentPlan, len(comps)),
		Workers:    opts.Workers,
		rt:         rt,
		prob:       p,
		comps:      comps,
		res:        res,
	}, nil
}

// dedupeNote annotates interior-point rationales for dense components:
// the solver drops transitively implied precedence rows before assembly
// (see core.SolveContinuousNumeric), and the plan surfaces that the
// interior point will carry fewer rows than the raw edge count suggests.
func dedupeNote(g *graph.Graph) string {
	if g.M() > 2*g.N() {
		return fmt.Sprintf("; %d precedence rows exceed 2·n — transitively implied rows are deduped before assembly", g.M())
	}
	return ""
}

// NumTasks returns the instance size the plan covers.
func (pl *Plan) NumTasks() int { return pl.prob.G.N() }

// Degraded reports whether any component was rerouted to the overload
// heuristic (responses surface this so callers know what they got).
func (pl *Plan) Degraded() bool {
	for _, cp := range pl.Components {
		if cp.Degraded {
			return true
		}
	}
	return false
}

// Exact reports whether every routed solver is provably optimal for its
// model (a-priori; heuristics and approximations make it false).
func (pl *Plan) Exact() bool {
	for _, cp := range pl.Components {
		if cp.BoundFactor != 1 {
			return false
		}
	}
	return true
}

// String renders the routing table, one line per component.
func (pl *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d task(s), %d component(s), model %s, algorithm %s\n",
		pl.NumTasks(), len(pl.Components), pl.Model.Kind, pl.Algorithm)
	for i, cp := range pl.Components {
		bound := "exact"
		if cp.BoundFactor != 1 {
			if math.IsInf(cp.BoundFactor, 1) {
				bound = "heuristic"
			} else {
				bound = fmt.Sprintf("within %.4g×", cp.BoundFactor)
			}
		}
		fmt.Fprintf(&b, "  #%d  %4d task(s) [%s]  %-16s → %-25s %-10s %s\n",
			i, len(cp.Tasks), idRange(cp.Tasks), cp.Class, cp.Solver, bound, cp.Rationale)
	}
	return b.String()
}

// idRange compacts a sorted ID list for display: "0–7" or "3".
func idRange(ids []int) string {
	if len(ids) == 0 {
		return ""
	}
	if len(ids) == 1 {
		return fmt.Sprintf("%d", ids[0])
	}
	contiguous := true
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			contiguous = false
			break
		}
	}
	if contiguous {
		return fmt.Sprintf("%d–%d", ids[0], ids[len(ids)-1])
	}
	return fmt.Sprintf("%d…%d", ids[0], ids[len(ids)-1])
}
