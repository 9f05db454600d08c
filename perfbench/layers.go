package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

// setDispatchLayers turns the dispatch re-runs' tally into the plan, core,
// convex and lp metrics every workload reports.
func (r *report) setDispatchLayers(t *tally) {
	reqs := t.counts["requests"]
	r.set("plan.split_ms", median(t.times["plan.split"]), "ms", len(t.times["plan.split"]))
	r.set("plan.route_ms", median(t.times["plan.route"]), "ms", len(t.times["plan.route"]))
	r.set("plan.merge_ms", median(t.times["plan.merge"]), "ms", len(t.times["plan.merge"]))
	r.set("plan.components_per_request", ratio(t.counts["components"], reqs), "count", int(reqs))
	r.set("core.solve_ms", median(t.times["core.solve"]), "ms", len(t.times["core.solve"]))

	total := 0.0
	for _, s := range solverNames {
		total += sum(t.times["core.solve."+s])
	}
	for _, s := range solverNames {
		ms := t.times["core.solve."+s]
		r.set("core.solve_share."+s, ratio(sum(ms), total), "ratio", len(ms))
		if len(ms) > 0 {
			r.note("core.solve_ms."+s, median(ms), "ms", len(ms))
		}
	}

	const ip = "continuous-interior-point"
	ipSolves := t.counts["solves."+ip]
	r.set("convex.newton_per_solve", ratio(t.counts["newton."+ip], ipSolves), "count", int(ipSolves))
	r.set("convex.ms_per_newton", ratio(sum(t.times["core.solve."+ip]), t.counts["newton."+ip]), "ms", int(t.counts["newton."+ip]))
	if t.counts["solves.incremental-approx"] > 0 {
		// core.approxByRounding drops the relaxation's Newton count, so the
		// incremental solver's iterations are unknown, not zero.
		r.census("convex.newton_per_solve.incremental-approx absent (not reported by the solver)")
	}
	vdd := t.counts["solves.vdd-lp"]
	r.set("lp.pivots_per_solve", ratio(t.counts["pivots.vdd-lp"], vdd), "count", int(vdd))
	if vdd > 0 {
		r.note("lp.ms_per_pivot", ratio(sum(t.times["core.solve.vdd-lp"]), t.counts["pivots.vdd-lp"]), "ms", int(t.counts["pivots.vdd-lp"]))
	}
	bb := t.counts["solves.discrete-bb"]
	r.set("core.bb_nodes_per_solve", ratio(t.counts["nodes.discrete-bb"], bb), "count", int(bb))
	r.set("core.frontier_peak", t.counts["frontier_peak"], "count", int(t.counts["solves.discrete-sp-dp"]))
}

// setAbsent reports layers this workload does not exercise as zero with
// no samples: a share, ratio or count of work that did not happen.
func (r *report) setAbsent(unit string, names ...string) {
	for _, n := range names {
		r.set(n, 0, unit, 0)
	}
}

// setRuntime reports the allocation rate and GC pauses of an untraced
// measured phase.
func (r *report) setRuntime(mallocs float64, ops int, pauses []float64) {
	r.set("runtime.allocs_per_op", ratio(mallocs, float64(ops)), "count", ops)
	r.set("runtime.gc_pause_p99_ms", percentile(pauses, 99), "ms", len(pauses))
}

// symbolicProbe measures linalg.symbolic_ms: the interior-point solve of a
// layered-256 instance on a KernelCache miss minus the same solve again on
// the hits that follow (the faster of two), median of seven fresh caches.
// Re-solving the same values keeps the numeric work identical, so the
// difference is the structural work the cache saves. The probe is the same
// on every workload.
func symbolicProbe(r *report, seed int64) error {
	g, err := workload.Generate("layered", 256, rand.New(rand.NewSource(seed)), graph.UniformWeights(0.5, 3))
	if err != nil {
		return err
	}
	mdl, err := model.NewContinuous(2)
	if err != nil {
		return err
	}
	solve := func(g *graph.Graph, kc *core.KernelCache) (float64, error) {
		dmin, err := g.MinimalDeadline(mdl.SMax)
		if err != nil {
			return 0, err
		}
		prob, err := core.NewProblem(g, dmin*slack)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = prob.SolveContinuousNumeric(mdl.SMax, core.ContinuousOptions{Kernels: kc})
		return float64(time.Since(start)) / float64(time.Millisecond), err
	}
	var diffs []float64
	for i := 0; i < 7; i++ {
		kc := core.NewKernelCache(4)
		miss, err := solve(g, kc)
		if err != nil {
			return err
		}
		hit := math.Inf(1)
		for k := 0; k < 2; k++ {
			ms, err := solve(g, kc)
			if err != nil {
				return err
			}
			hit = math.Min(hit, ms)
		}
		diffs = append(diffs, miss-hit)
	}
	r.set("linalg.symbolic_ms", median(diffs), "ms", len(diffs))
	return nil
}
