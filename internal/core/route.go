package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/model"
)

// Algorithm selectors: the service wire values of SolveRequest.Algorithm,
// aliased by internal/plan and internal/service.
const (
	AlgoAuto    = "auto"    // cheapest exact method for the model
	AlgoBB      = "bb"      // discrete branch-and-bound (exact)
	AlgoSP      = "sp"      // discrete Pareto DP on series-parallel shapes (exact)
	AlgoGreedy  = "greedy"  // discrete greedy heuristic
	AlgoRoundUp = "roundup" // continuous solve + per-task round-up heuristic
	AlgoApprox  = "approx"  // Theorem 5 (1+δ/smin)²(1+1/K)² approximation
)

// Class is the structural classification of one component graph.
type Class int

// The classes of the paper's complexity landscape, in recognition order
// (every chain is a tree and every tree is series-parallel; Classify
// reports the most specific class because it carries the cheapest solver).
const (
	ClassChain Class = iota
	ClassFork
	ClassJoin
	ClassTree
	ClassSeriesParallel
	ClassGeneralDAG
)

var classNames = [...]string{"chain", "fork", "join", "tree", "series-parallel", "general-dag"}

func (c Class) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Shape is what Classify recognizes in a component graph: the class plus
// the by-products the structured solvers reuse, so SolveRoute never pays
// the transitive reduction and SP recognition a second time.
type Shape struct {
	Class Class
	// Expr is the series-parallel expression: over the graph itself for
	// joins and trees, over Reduced for the series-parallel class, nil for
	// general DAGs. Chains and forks carry none either — their closed
	// forms never read it, and SolveRoute derives it when the Pareto DP
	// does.
	Expr *graph.SPExpr
	// Reduced is the transitive reduction Expr was decomposed on, nil when
	// Expr refers to the graph itself.
	Reduced *graph.Graph
}

// Classify recognizes the most specific structure class of g, checking the
// cheap shapes first: chain, fork, join, tree, then series-parallel on the
// transitive reduction, and general DAG when everything else fails.
func Classify(g *graph.Graph) Shape {
	if _, ok := g.IsChain(); ok {
		return Shape{Class: ClassChain}
	}
	if _, ok := g.IsFork(); ok {
		return Shape{Class: ClassFork}
	}
	if e, ok := graph.TreeToSP(g); ok {
		if _, join := g.IsJoin(); join {
			return Shape{Class: ClassJoin, Expr: e}
		}
		return Shape{Class: ClassTree, Expr: e}
	}
	if reduced, err := g.TransitiveReduction(); err == nil {
		if e, ok := graph.DecomposeSP(reduced); ok {
			sh := Shape{Class: ClassSeriesParallel, Expr: e}
			if reduced != g {
				sh.Reduced = reduced
			}
			return sh
		}
	}
	return Shape{Class: ClassGeneralDAG}
}

// Route is one row of the routing table: the solver SolveRoute runs and
// what the caller may expect of it.
type Route struct {
	// Solver is the solver ID; the answer's Stats.Algorithm reports it (or
	// its fallback's ID, or one of the interior point's finer exit labels).
	Solver string
	// Rationale explains the choice (theorem reference and fallback).
	Rationale string
	// BoundFactor is the a-priori guarantee: 1 for exact solvers, the
	// Theorem 5 / Proposition 1 factor for approximations, +Inf for
	// guarantee-free heuristics. The answer reports the same factor.
	BoundFactor float64
	// Cost is a rough relative cost estimate — comparable between the
	// components of one instance, not across instances.
	Cost float64
	// Degradable marks an expensive auto route the serving layer may trade
	// for the bounded uniform heuristic under overload. Closed forms are
	// already cheap; forced selectors and residual components are honored.
	Degradable bool
}

// CheckSelector rejects an unknown selector, or a forced one the model does
// not define (every forced selector needs a mode set).
func CheckSelector(kind model.Kind, selector string) error {
	switch selector {
	case AlgoAuto:
		return nil
	case AlgoBB, AlgoSP, AlgoGreedy, AlgoRoundUp, AlgoApprox:
		if kind == model.Discrete || kind == model.Incremental {
			return nil
		}
		return fmt.Errorf("core: algorithm %q is not defined for the %s model", selector, kind)
	}
	return fmt.Errorf("core: unknown algorithm %q", selector)
}

// SelectRoute is the routing table: the only code that maps model kind ×
// selector × class × residual to a solver, following the complexity
// landscape of the paper (Aupy, Benoit, Dufossé, Robert, arXiv:1204.0939).
// The auto selector routes by class:
//
//	class            Continuous                  Discrete          Vdd-Hopping             Incremental
//	chain            chain-closed-form (T1)      discrete-sp-dp†   vdd-chain-closed-form‡  incremental-approx (T5)
//	fork             fork-closed-form (T1)       discrete-sp-dp†   vdd-lp (T3)             incremental-approx (T5)
//	join, tree       tree-equivalent-weight*     discrete-sp-dp†   vdd-lp (T3)             incremental-approx (T5)
//	series-parallel  sp-equivalent-weight*       discrete-sp-dp†   vdd-lp (T3)             incremental-approx (T5)
//	general DAG      continuous-interior-point   discrete-bb (T4)  vdd-lp (T3)             incremental-approx (T5)
//	residual         continuous-interior-point   discrete-bb (T4)  vdd-lp (T3)‡            incremental-approx (T5)
//
// (*) Theorem 2's equivalent-weight algebra; SolveRoute falls back to the
// interior point (§2.1) when the finite smax binds. (†) The exact Pareto
// DP; SolveRoute falls back to branch-and-bound when its frontier budget is
// hit. (‡) Theorem 3 on a chain: every task runs at W/(D − r₀) split
// between its two bracketing modes, r₀ the head's release. A residual
// chain keeps this row; SolveRoute falls back to the linear program when a
// release sits on any task other than the head. A residual component
// carries release times or a speed floor (opts.Continuous.SMin),
// constraints the other closed forms and the DP cannot express, whatever
// its class.
//
// The forced selectors, defined for Discrete and Incremental only, name
// their solver outright: bb → discrete-bb, sp → discrete-sp-dp (rejected
// on general DAGs and residual components), greedy → discrete-greedy,
// roundup → discrete-roundup, approx → discrete-approx (incremental-approx
// on Incremental). n is the component's task count, for the cost estimate.
func SelectRoute(m model.Model, selector string, class Class, n int, opts PlannedOptions) (Route, error) {
	if err := CheckSelector(m.Kind, selector); err != nil {
		return Route{}, err
	}
	residual := opts.residual()
	nf, nm := float64(n), float64(len(m.Modes))
	cubic := nf * nf * nf
	switch selector {
	case AlgoBB:
		return Route{Solver: "discrete-bb", Rationale: "forced: exact branch-and-bound over per-task modes (Theorem 4)",
			BoundFactor: 1, Cost: bbCost(nf, nm, opts.Discrete)}, nil
	case AlgoSP:
		if class == ClassGeneralDAG {
			return Route{}, fmt.Errorf("core: algorithm %q requires a series-parallel execution graph, not a %s", selector, class)
		}
		if residual {
			return Route{}, fmt.Errorf("core: algorithm %q cannot solve residual components with release times", selector)
		}
		return Route{Solver: "discrete-sp-dp", Rationale: "forced: exact Pareto dynamic program on the series-parallel decomposition",
			BoundFactor: 1, Cost: nf * nm * 64}, nil
	case AlgoGreedy:
		return Route{Solver: "discrete-greedy", Rationale: "forced: greedy slack-reclaiming heuristic (no a-priori guarantee)",
			BoundFactor: math.Inf(1), Cost: nf * nf * nm}, nil
	case AlgoRoundUp:
		return Route{Solver: "discrete-roundup", Rationale: "forced: continuous relaxation rounded up per task (Proposition 1)",
			BoundFactor: roundUpBound(m), Cost: cubic}, nil
	case AlgoApprox:
		if m.Kind == model.Incremental {
			return Route{Solver: "incremental-approx", Rationale: fmt.Sprintf("forced: Theorem 5 speed-bounded relaxation + rounding, K=%d", opts.k()),
				BoundFactor: Theorem5Bound(m, opts.k()), Cost: cubic}, nil
		}
		return Route{Solver: "discrete-approx", Rationale: fmt.Sprintf("forced: Proposition 1 relaxation + rounding to the mode set, K=%d", opts.k()),
			BoundFactor: Proposition1DiscreteBound(m, opts.k()), Cost: cubic}, nil
	}

	switch m.Kind {
	case model.Continuous:
		switch {
		case residual:
			return Route{Solver: "continuous-interior-point", Rationale: "residual component with release times: interior-point geometric program with tᵢ−dᵢ ≥ rᵢ rows",
				BoundFactor: 1, Cost: cubic}, nil
		case class == ClassChain:
			return Route{Solver: "chain-closed-form", Rationale: "Theorem 1: every chain task runs at Σw/D", BoundFactor: 1, Cost: nf}, nil
		case class == ClassFork:
			return Route{Solver: "fork-closed-form", Rationale: "Theorem 1: s₀ = ((Σwᵢ³)^⅓ + w₀)/D with the saturated branch when smax binds",
				BoundFactor: 1, Cost: nf}, nil
		case class == ClassJoin || class == ClassTree:
			return Route{Solver: "tree-equivalent-weight", Rationale: "Theorem 2: equivalent-weight algebra on the tree's SP expression; interior point if smax binds",
				BoundFactor: 1, Cost: nf}, nil
		case class == ClassSeriesParallel:
			return Route{Solver: "sp-equivalent-weight", Rationale: "Theorem 2: series/parallel weight composition W³/D²; interior point if smax binds",
				BoundFactor: 1, Cost: nf}, nil
		}
		return Route{Solver: "continuous-interior-point", Rationale: "general DAG: interior-point geometric program (Section 2.1)",
			BoundFactor: 1, Cost: cubic, Degradable: true}, nil
	case model.VddHopping:
		if class == ClassChain {
			return Route{Solver: "vdd-chain-closed-form", Rationale: "Theorem 3 on a chain: every task runs at W/(D − r₀) between its two bracketing modes; linear program if a release sits past the head",
				BoundFactor: 1, Cost: nf}, nil
		}
		r := Route{Solver: "vdd-lp", Rationale: "Theorem 3: exact linear program, speeds hop between neighboring modes",
			BoundFactor: 1, Cost: (nf * nm) * (nf * nm), Degradable: !residual}
		if residual {
			r.Rationale = "Theorem 3 linear program with residual release rows tᵢ − Σαᵢⱼ ≥ rᵢ"
		}
		return r, nil
	case model.Discrete:
		switch {
		case residual:
			return Route{Solver: "discrete-bb", Rationale: "residual component with release times: exact branch-and-bound on release-aware makespans (Theorem 4)",
				BoundFactor: 1, Cost: bbCost(nf, nm, opts.Discrete)}, nil
		case class == ClassGeneralDAG:
			return Route{Solver: "discrete-bb", Rationale: "NP-complete in general (Theorem 4): exact branch-and-bound with greedy incumbent",
				BoundFactor: 1, Cost: bbCost(nf, nm, opts.Discrete), Degradable: true}, nil
		}
		return Route{Solver: "discrete-sp-dp", Rationale: fmt.Sprintf("%s is series-parallel: exact Pareto dynamic program; branch-and-bound if the frontier budget is hit", class),
			BoundFactor: 1, Cost: nf * nm * 64, Degradable: true}, nil
	case model.Incremental:
		return Route{Solver: "incremental-approx", Rationale: fmt.Sprintf("Theorem 5: NP-complete exactly, (1+δ/smin)²(1+1/K)²-approximable in polynomial time, K=%d", opts.k()),
			BoundFactor: Theorem5Bound(m, opts.k()), Cost: cubic, Degradable: !residual}, nil
	}
	return Route{}, fmt.Errorf("core: no route for model %s", m.Kind)
}

// bbCost estimates branch-and-bound work: the mode^task tree capped by the
// node budget.
func bbCost(n, nm float64, opts DiscreteOptions) float64 {
	return math.Min(math.Pow(math.Max(nm, 2), n), float64(opts.maxNodes()))
}

// SolveRoute runs the solver a Route names on p, with the three documented
// fallbacks: the equivalent-weight algebra falls back to the interior
// point when the finite smax binds, the Pareto DP to branch-and-bound when
// its frontier budget is hit, and the Vdd chain closed form to the linear
// program when a release sits past the chain's head. sh is p's
// classification (only the SP routes read it). Release times and warm
// seeds in opts reach every solver that accepts them; they never change an
// exact solver's optimum.
func (p *Problem) SolveRoute(m model.Model, solver string, sh Shape, opts PlannedOptions) (*Solution, error) {
	copts, dopts := opts.Continuous, opts.Discrete
	switch solver {
	case "chain-closed-form":
		return p.SolveChainContinuous(m.SMax)
	case "fork-closed-form":
		return p.SolveForkContinuous(m.SMax)
	case "tree-equivalent-weight", "sp-equivalent-weight":
		sol, err := p.onSPExpr(sh, func(q *Problem, e *graph.SPExpr) (*Solution, error) { return q.SolveSPContinuous(e, m.SMax) })
		if err != nil {
			return p.SolveContinuousNumeric(m.SMax, copts) // smax binds
		}
		sol.Stats.Algorithm = solver
		return sol, nil
	case "continuous-interior-point":
		return p.SolveContinuousNumeric(m.SMax, copts)
	case "vdd-chain-closed-form":
		sol, err := p.SolveVddChain(m, VddOptions{Release: copts.Release})
		if errors.Is(err, errInteriorRelease) {
			return p.SolveVddHoppingOpts(m, VddOptions{Release: copts.Release})
		}
		return sol, err
	case "vdd-lp":
		return p.SolveVddHoppingOpts(m, VddOptions{Release: copts.Release})
	case "discrete-sp-dp":
		sol, err := p.onSPExpr(sh, func(q *Problem, e *graph.SPExpr) (*Solution, error) { return q.SolveDiscreteSP(m, e, dopts) })
		if errors.Is(err, ErrSearchLimit) {
			return p.SolveDiscreteBB(m, dopts) // frontier budget hit
		}
		return sol, err
	case "discrete-bb":
		return p.SolveDiscreteBB(m, dopts)
	case "discrete-greedy":
		return p.SolveDiscreteGreedyOpts(m, dopts)
	case "discrete-roundup":
		return p.SolveDiscreteRoundUp(m, copts)
	case "discrete-approx":
		return p.SolveDiscreteApprox(m, opts.k(), copts)
	case "incremental-approx":
		return p.SolveIncrementalApprox(m, opts.k(), copts)
	}
	return nil, fmt.Errorf("core: unknown solver %q", solver)
}

// onSPExpr runs solve on the problem sh's series-parallel expression
// refers to — p itself, or its transitive reduction, whose speeds are valid
// for p because both graphs have the same path structure — and re-expands
// the speeds onto p. Chains and forks carry no expression; it is derived
// here, in linear time.
func (p *Problem) onSPExpr(sh Shape, solve func(*Problem, *graph.SPExpr) (*Solution, error)) (*Solution, error) {
	q, e := p, sh.Expr
	if e == nil {
		var ok bool
		if e, ok = graph.TreeToSP(p.G); !ok {
			return nil, fmt.Errorf("core: a %s component has no series-parallel expression", sh.Class)
		}
	} else if sh.Reduced != nil {
		q = &Problem{G: sh.Reduced, Deadline: p.Deadline}
	}
	sol, err := solve(q, e)
	if err != nil || q == p {
		return sol, err
	}
	speeds, err := sol.Speeds()
	if err != nil {
		return nil, fmt.Errorf("core: SP solution has non-constant speeds: %w", err)
	}
	return p.solutionFromSpeeds(sol.Model, speeds, sol.Stats)
}
