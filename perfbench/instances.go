package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/workload"
)

// Model specs, in the service's wire form. vddLadder is the twelve-mode
// DVFS ladder of the repository's reclaim scenarios.
var (
	contSpec  = service.ModelSpec{Kind: "continuous", SMax: 2}
	discSpec  = service.ModelSpec{Kind: "discrete", Modes: []float64{0.5, 1, 2}}
	incrSpec  = service.ModelSpec{Kind: "incremental", SMin: 0.5, SMax: 2, Delta: 0.25}
	vddLadder = service.ModelSpec{Kind: "vdd-hopping",
		Modes: []float64{0.5, 0.636, 0.772, 0.909, 1.045, 1.181, 1.318, 1.454, 1.59, 1.727, 1.863, 2}}
)

// slack stretches every instance's deadline: for the continuous model,
// slack × Σw/smax, the time to run every task one after another at the top
// speed, so smax never binds and the routed solver is a property of the
// shape alone (on tighter deadlines wide forks and trees fall back to the
// interior point depending on their weights); for the discrete models,
// slack × the minimal feasible deadline, so the slowest modes stay useful.
const slack = 1.4

// valueJitter is the relative weight perturbation of a jittered variant.
const valueJitter = 0.2

// shape names one graph structure: a workload family at a size, or a
// "mixed" union of chain, layered and series-parallel components.
type shape struct {
	family string
	n      int
}

func (s shape) String() string { return fmt.Sprintf("%s-%d", s.family, s.n) }

// build draws the shape's graph. The structure comes from structSeed alone,
// so every run seed offers the same graphs — the same components and the
// same routed solvers; rng draws the weights, uniform in [0.5, 3).
func (s shape) build(structSeed int64, rng *rand.Rand) (*graph.Graph, error) {
	srng := rand.New(rand.NewSource(structSeed))
	wf := graph.UniformWeights(0.5, 3)
	var g *graph.Graph
	if s.family != "mixed" {
		var err error
		if g, err = workload.Generate(s.family, s.n, srng, wf); err != nil {
			return nil, err
		}
	} else {
		// mixed-k: k components cycling chain-32, layered-32 and sp-32.
		parts := make([]*graph.Graph, s.n)
		for i := range parts {
			fam := []string{"chain", "layered", "sp"}[i%3]
			p, err := workload.Generate(fam, 32, srng, wf)
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
		g = workload.DisjointUnion(parts...)
	}
	w := make([]float64, g.N())
	for i := range w {
		w[i] = wf(rng)
	}
	return g.CloneWithWeights(w), nil
}

// instance is one solved problem: a graph, its deadline, and the reference
// solution every served answer for it is checked against.
type instance struct {
	g        *graph.Graph
	deadline float64
	spec     service.ModelSpec
	mdl      model.Model
	ref      *core.Solution
	comps    int
}

// newInstance fixes the deadline (see slack) and computes the reference
// solution in-process with core.SolvePlanned: core.SolveAuto
// on each weakly-connected component, merged — a dispatch path independent
// of the plan.Router one the service runs.
func newInstance(g *graph.Graph, spec service.ModelSpec) (*instance, error) {
	mdl, err := spec.Build()
	if err != nil {
		return nil, err
	}
	d, err := g.MinimalDeadline(mdl.SMax)
	if err != nil {
		return nil, err
	}
	if mdl.Kind == model.Continuous {
		d = g.TotalWeight() / mdl.SMax
	}
	prob, err := core.NewProblem(g, d*slack)
	if err != nil {
		return nil, err
	}
	comps, err := prob.SplitComponents()
	if err != nil {
		return nil, err
	}
	ref, err := prob.SolvePlanned(mdl, core.PlannedOptions{})
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	return &instance{g: g, deadline: prob.Deadline, spec: spec, mdl: mdl, ref: ref, comps: len(comps)}, nil
}

// jittered returns g with every weight scaled by its own factor drawn
// from [1−J, 1+J].
func jittered(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	w := make([]float64, g.N())
	for i := range w {
		w[i] = g.Weight(i) * (1 + valueJitter*(2*rng.Float64()-1))
	}
	return g.CloneWithWeights(w)
}

// scaled returns the instance's graph and deadline with every weight and
// the deadline multiplied by c. Every optimal speed is unchanged under
// that scaling, so the reference energy scales by exactly c (E = Σ wᵢsᵢ²)
// and one in-process reference covers every scaled copy, while the copies
// themselves are distinct instances to the service's instance cache.
// c == 1 returns the instance itself, bit for bit.
func (in *instance) scaled(c float64) (*graph.Graph, float64) {
	if c == 1 {
		return in.g, in.deadline
	}
	w := make([]float64, in.g.N())
	for i := range w {
		w[i] = in.g.Weight(i) * c
	}
	return in.g.CloneWithWeights(w), in.deadline * c
}

func (in *instance) request(c float64) *service.SolveRequest {
	g, d := in.scaled(c)
	return &service.SolveRequest{Graph: g, Deadline: d, Model: in.spec}
}

// drawScale returns a scale factor log-uniform on [1/2, 2].
func drawScale(rng *rand.Rand) float64 {
	return math.Exp(math.Ln2 * (2*rng.Float64() - 1))
}

// zipf is the cumulative distribution of ranks in [0, n) with
// P(k) ∝ 1/(k+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	z := zipf{cdf: make([]float64, n)}
	total := 0.0
	for k := range z.cdf {
		total += 1 / float64(k+1)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}
