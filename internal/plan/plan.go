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
// The routing table, for the auto selector:
//
//	structure        Continuous                Discrete            Vdd-Hopping   Incremental
//	chain            chain closed form (T1)    Pareto DP (exact)   LP (T3)       Theorem 5 approx
//	fork             fork closed form (T1)     Pareto DP (exact)   LP (T3)       Theorem 5 approx
//	join/tree        equivalent weight (T2)*   Pareto DP (exact)   LP (T3)       Theorem 5 approx
//	series-parallel  equivalent weight (T2)*   Pareto DP (exact)   LP (T3)       Theorem 5 approx
//	general DAG      interior point (§2.1)     branch-and-bound    LP (T3)       Theorem 5 approx
//
// (*) falls back to the interior point when the finite smax binds; the
// Pareto DP falls back to branch-and-bound when its frontier budget is hit.
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

// Algorithm selectors accepted by Options.Algorithm. These are the service
// wire values; internal/service aliases them.
const (
	AlgoAuto    = "auto"    // cheapest exact method for the model
	AlgoBB      = "bb"      // discrete branch-and-bound (exact)
	AlgoSP      = "sp"      // discrete Pareto DP on series-parallel shapes (exact)
	AlgoGreedy  = "greedy"  // discrete greedy heuristic
	AlgoRoundUp = "roundup" // continuous solve + per-task round-up heuristic
	AlgoApprox  = "approx"  // Theorem 5 (1+δ/smin)²(1+1/K)² approximation
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

// Class is the structural classification of one component.
type Class int

// The classes of the paper's complexity landscape, in recognition order
// (every chain is a tree and every tree is series-parallel; the planner
// reports the most specific class because it carries the cheapest solver).
const (
	ClassChain Class = iota
	ClassFork
	ClassJoin
	ClassTree
	ClassSeriesParallel
	ClassGeneralDAG
)

func (c Class) String() string {
	switch c {
	case ClassChain:
		return "chain"
	case ClassFork:
		return "fork"
	case ClassJoin:
		return "join"
	case ClassTree:
		return "tree"
	case ClassSeriesParallel:
		return "series-parallel"
	case ClassGeneralDAG:
		return "general-dag"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// artifacts carries the reusable by-products of classification — the
// series-parallel expression and (when the expression was found on it) the
// transitive reduction — so Execute never pays the O(n²·m) recognition a
// second time.
type artifacts struct {
	// expr is the series-parallel expression of the component: over the
	// component graph itself for chains/forks/joins/trees, over reduced for
	// the series-parallel class, nil for general DAGs.
	expr *graph.SPExpr
	// reduced is the transitive reduction expr was decomposed on, nil when
	// expr refers to the component graph directly.
	reduced *graph.Graph
}

// ComponentPlan is the routing decision for one weakly-connected component.
type ComponentPlan struct {
	// Tasks lists the component's original task IDs.
	Tasks []int
	// Class is the recognized structure.
	Class Class
	// Solver names the planned solving procedure.
	Solver string
	// Rationale explains the choice (theorem reference and fallback).
	Rationale string
	// BoundFactor is the a-priori guarantee: 1 for exact solvers, the
	// Theorem 5 / Proposition 1 factor for approximations, +Inf for
	// guarantee-free heuristics.
	BoundFactor float64
	// Cost is a rough relative cost estimate — comparable between the
	// components of one plan, not across plans.
	Cost float64
	// Degraded marks a component rerouted to the bounded uniform heuristic
	// under overload; BoundFactor then carries the a-priori guarantee of
	// what the caller got instead of the optimum.
	Degraded bool

	art artifacts
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
	k        int
	copts    core.ContinuousOptions
	dopts    core.DiscreteOptions
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
	switch algo {
	case AlgoAuto, AlgoBB, AlgoSP, AlgoGreedy, AlgoRoundUp, AlgoApprox:
	default:
		return nil, badPlan("unknown algorithm %q", opts.Algorithm)
	}
	if algo != AlgoAuto && m.Kind != model.Discrete && m.Kind != model.Incremental {
		return nil, badPlan("algorithm %q is not defined for the %s model", algo, m.Kind)
	}
	k := opts.K
	if k <= 0 {
		k = 4
	}
	rt := &Router{m: m, algo: algo, k: k, copts: opts.Continuous, dopts: opts.Discrete, structs: opts.Structures, degraded: opts.Degraded}
	if opts.Structures != nil && rt.copts.Kernels == nil {
		rt.copts.Kernels = opts.Structures.Kernels()
	}
	return rt, nil
}

// Route classifies one component and picks its solver. rel carries
// component-local release times on residual plans (nil otherwise). The sp
// selector's structural requirements are enforced here, exactly as Analyze
// enforces them for whole plans.
func (rt *Router) Route(c core.Component, rel []float64) (ComponentPlan, error) {
	cp := route(c, rt.m, rt.algo, rt.k, rt.dopts, rel, rt.structs)
	if rt.algo == AlgoSP && cp.Class == ClassGeneralDAG {
		return ComponentPlan{}, badPlan("algorithm %q requires a series-parallel execution graph (component {%s} is %s)",
			AlgoSP, idRange(cp.Tasks), cp.Class)
	}
	if rt.algo == AlgoSP && cp.release != nil {
		return ComponentPlan{}, badPlan("algorithm %q cannot solve residual components with release times (component {%s})",
			AlgoSP, idRange(cp.Tasks))
	}
	if rt.degraded {
		rt.degrade(c, &cp)
	}
	return cp, nil
}

// degradable lists the solvers worth trading away under overload; the
// closed forms and equivalent-weight algebra are already linear-time, so
// degrading them would cost optimality for no relief.
var degradable = map[string]bool{
	"continuous-interior-point": true,
	"discrete-bb":               true,
	"discrete-sp-dp":            true,
	"vdd-lp":                    true,
	"incremental-approx":        true,
}

// degrade reroutes cp to the uniform-speed heuristic when the router is in
// degraded mode and the planned solver is expensive. The bound comes from
// the paper's critical-path relaxation: running everything at Σw/D uses
// W·(Σw/D)²·1 = W³/D²·(W/W)… precisely E_uniform = W·(W_cp-normalized);
// against OPT ≥ CPW³/D² (no schedule can beat the critical path run at its
// slowest feasible uniform speed) the ratio is at most W/CPW for the
// continuous model, times the (1+maxgap/smin)² rounding factor when speeds
// must round up to a discrete set. Forced selectors are honored (the
// caller asked for that algorithm) and residual components keep their
// release-aware solvers (replans are correctness, not capacity).
func (rt *Router) degrade(c core.Component, cp *ComponentPlan) {
	if rt.algo != AlgoAuto || cp.release != nil || !degradable[cp.Solver] {
		return
	}
	g := c.Prob.G
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

// Classify recognizes the most specific structure class of g, checking the
// cheap shapes first: chain, fork, join, tree, then series-parallel on the
// transitive reduction, and general DAG when everything else fails.
func Classify(g *graph.Graph) Class {
	c, _ := classify(g)
	return c
}

// classify is Classify plus the recognition by-products Execute reuses.
// Chains, forks, and joins are trees, so their SP expression comes from the
// (linear-time) tree conversion.
func classify(g *graph.Graph) (Class, artifacts) {
	if _, ok := g.IsChain(); ok {
		e, _ := graph.TreeToSP(g)
		return ClassChain, artifacts{expr: e}
	}
	if _, ok := g.IsFork(); ok {
		e, _ := graph.TreeToSP(g)
		return ClassFork, artifacts{expr: e}
	}
	if _, ok := g.IsJoin(); ok {
		e, _ := graph.TreeToSP(g)
		return ClassJoin, artifacts{expr: e}
	}
	if e, ok := graph.TreeToSP(g); ok {
		return ClassTree, artifacts{expr: e}
	}
	if reduced, err := g.TransitiveReduction(); err == nil {
		if e, ok := graph.DecomposeSP(reduced); ok {
			return ClassSeriesParallel, artifacts{expr: e, reduced: reduced}
		}
	}
	return ClassGeneralDAG, artifacts{}
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
// barrier will carry fewer rows than the raw edge count suggests.
func dedupeNote(g *graph.Graph) string {
	if g.M() > 2*g.N() {
		return fmt.Sprintf("; %d precedence rows exceed 2·n — transitively implied rows are deduped before assembly", g.M())
	}
	return ""
}

// route picks the solver for one classified component. rel carries the
// component-local release times of a residual plan (nil = none): releases
// invalidate the closed forms and the SP Pareto DP, so those components go
// to the general release-aware solvers instead. sc, when non-nil, serves
// the classification from the structure cache.
func route(c core.Component, m model.Model, algo string, k int, dopts core.DiscreteOptions, rel []float64, sc *StructureCache) ComponentPlan {
	g := c.Prob.G
	var class Class
	var art artifacts
	if sc != nil {
		class, art = sc.classify(g)
	} else {
		class, art = classify(g)
	}
	cp := ComponentPlan{
		Tasks:       c.Tasks,
		Class:       class,
		BoundFactor: 1,
		art:         art,
		release:     rel,
	}
	n := float64(g.N())
	nm := float64(len(m.Modes))

	// Forced selectors apply uniformly; auto routes by class.
	switch algo {
	case AlgoBB:
		cp.Solver = "discrete-bb"
		cp.Rationale = "forced: exact branch-and-bound over per-task modes (Theorem 4)"
		cp.Cost = bbCost(n, nm, dopts)
		return cp
	case AlgoSP:
		cp.Solver = "discrete-sp-dp"
		cp.Rationale = "forced: exact Pareto dynamic program on the series-parallel decomposition"
		cp.Cost = n * nm * 64
		return cp
	case AlgoGreedy:
		cp.Solver = "discrete-greedy"
		cp.Rationale = "forced: greedy slack-reclaiming heuristic (no a-priori guarantee)"
		cp.BoundFactor = math.Inf(1)
		cp.Cost = n * n * nm
		return cp
	case AlgoRoundUp:
		cp.Solver = "discrete-roundup"
		cp.Rationale = "forced: continuous relaxation rounded up per task (Proposition 1)"
		cp.BoundFactor = core.Proposition1ContinuousBound(m)
		cp.Cost = n * n * n
		return cp
	case AlgoApprox:
		if m.Kind == model.Incremental {
			cp.Solver = "incremental-approx"
			cp.Rationale = fmt.Sprintf("forced: Theorem 5 speed-bounded relaxation + rounding, K=%d", k)
		} else {
			cp.Solver = "discrete-approx"
			cp.Rationale = fmt.Sprintf("forced: Proposition 1 relaxation + rounding to the mode set, K=%d", k)
		}
		cp.BoundFactor = approxBound(m, k)
		cp.Cost = n * n * n
		return cp
	}

	switch m.Kind {
	case model.Continuous:
		if rel != nil {
			cp.Solver = "continuous-interior-point"
			cp.Rationale = "residual component with release times: log-barrier geometric program with tᵢ−dᵢ ≥ rᵢ rows" + dedupeNote(g)
			cp.Cost = n * n * n
			break
		}
		switch cp.Class {
		case ClassChain:
			cp.Solver = "chain-closed-form"
			cp.Rationale = "Theorem 1: every chain task runs at Σw/D"
			cp.Cost = n
		case ClassFork:
			cp.Solver = "fork-closed-form"
			cp.Rationale = "Theorem 1: s₀ = ((Σwᵢ³)^⅓ + w₀)/D with the saturated branch when smax binds"
			cp.Cost = n
		case ClassJoin, ClassTree:
			cp.Solver = "tree-equivalent-weight"
			cp.Rationale = "Theorem 2: equivalent-weight algebra on the tree's SP expression; interior point if smax binds"
			cp.Cost = n
		case ClassSeriesParallel:
			cp.Solver = "sp-equivalent-weight"
			cp.Rationale = "Theorem 2: series/parallel weight composition W³/D²; interior point if smax binds"
			cp.Cost = n
		default:
			cp.Solver = "continuous-interior-point"
			cp.Rationale = "general DAG: log-barrier geometric program (Section 2.1)" + dedupeNote(g)
			cp.Cost = n * n * n
		}
	case model.VddHopping:
		cp.Solver = "vdd-lp"
		cp.Rationale = "Theorem 3: exact linear program, speeds hop between neighboring modes"
		if rel != nil {
			cp.Rationale = "Theorem 3 linear program with residual release rows tᵢ − Σαᵢⱼ ≥ rᵢ"
		}
		cp.Cost = (n * nm) * (n * nm)
	case model.Discrete:
		if cp.Class == ClassGeneralDAG || rel != nil {
			cp.Solver = "discrete-bb"
			cp.Rationale = "NP-complete in general (Theorem 4): exact branch-and-bound with greedy incumbent"
			if rel != nil {
				cp.Rationale = "residual component with release times: exact branch-and-bound on release-aware makespans (Theorem 4)"
			}
			cp.Cost = bbCost(n, nm, dopts)
		} else {
			cp.Solver = "discrete-sp-dp"
			cp.Rationale = fmt.Sprintf("%s is series-parallel: exact Pareto dynamic program; branch-and-bound if the frontier budget is hit", cp.Class)
			cp.Cost = n * nm * 64
		}
	case model.Incremental:
		cp.Solver = "incremental-approx"
		cp.Rationale = fmt.Sprintf("Theorem 5: NP-complete exactly, (1+δ/smin)²(1+1/K)²-approximable in polynomial time, K=%d", k)
		cp.BoundFactor = approxBound(m, k)
		cp.Cost = n * n * n
	}
	return cp
}

// bbCost estimates branch-and-bound work: the mode^task tree capped by the
// node budget.
func bbCost(n, nm float64, dopts core.DiscreteOptions) float64 {
	budget := 4e6
	if dopts.MaxNodes > 0 {
		budget = float64(dopts.MaxNodes)
	}
	return math.Min(math.Pow(math.Max(nm, 2), n), budget)
}

// approxBound is the a-priori factor of the rounding approximation for the
// model at hand.
func approxBound(m model.Model, k int) float64 {
	if m.Kind == model.Incremental {
		return core.Theorem5Bound(m, k)
	}
	return core.Proposition1DiscreteBound(m, k)
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
