package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/workload"
)

// The kernel workload: one in-process caller, closed loop, no HTTP and no
// caches, solving a fixed list of large instances through plan.Analyze +
// Plan.Execute (and core.SolveMappedContinuous for the memory-mapped
// one). Nearly all the time goes to the solver kernels — closed forms and
// SP algebra aside, one instance per solver class of the paper's energy
// models — so a serving-path change predicts no change here.

// kernelSeed pins every kernel instance, structure and weights.
const kernelSeed = 2011

// kernelCase is one timed solver class.
type kernelCase struct {
	name string // its named metric, seconds per solve
	in   *instance
	file string        // EGRF path of the memory-mapped case
	mg   *graph.Mapped // the open mapping of the memory-mapped case
}

type kernelEnv struct {
	cases []*kernelCase
	rec   *recorder
	t     *tally
}

func (env *kernelEnv) close() {
	for _, c := range env.cases {
		if c.mg != nil {
			c.mg.Close()
			os.Remove(c.file)
		}
	}
}

// setupKernel builds the pinned cases. Solver cost on these sizes moves
// with the weights (interior-point Newton counts by a third, LP pivots,
// search trees by integer factors), so the instances are fixed and the
// seed only orders each round's cases.
func setupKernel() (*kernelEnv, error) {
	env := &kernelEnv{}
	rng := rand.New(rand.NewSource(kernelSeed))
	add := func(name string, g *graph.Graph, spec service.ModelSpec) error {
		in, err := newInstance(g, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		env.cases = append(env.cases, &kernelCase{name: name, in: in})
		return nil
	}
	err := func() error {
		layered, err := shape{"layered", 512}.build(1, rng)
		if err != nil {
			return err
		}
		if err := add("continuous_dag_s", layered, contSpec); err != nil {
			return err
		}
		multi, err := shape{"multi", 128}.build(2, rng)
		if err != nil {
			return err
		}
		mc, err := mappedCase(multi)
		if err != nil {
			return err
		}
		env.cases = append(env.cases, mc)
		// LU-4, not larger: the LP's dense tableau then stays in cache. On
		// LU-6 its solve time drifted 35% with the VM's cache contention
		// within three minutes, against 16% on LU-4.
		if err := add("vdd_lp_s", jittered(graph.LUElimination(4, 1), rng), vddLadder); err != nil {
			return err
		}
		if err := add("discrete_s", discreteInstance(), discSpec); err != nil {
			return err
		}
		incr, err := shape{"layered", 512}.build(3, rng)
		if err != nil {
			return err
		}
		return add("incremental_s", incr, incrSpec)
	}()
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// discreteInstance is the discrete case: 8 series-parallel components of
// 48 tasks (Pareto DP) and 8 random DAGs of 20 tasks (branch-and-bound
// where they are not series-parallel).
func discreteInstance() *graph.Graph {
	rng := rand.New(rand.NewSource(kernelSeed))
	wf := graph.UniformWeights(0.5, 3)
	var parts []*graph.Graph
	for i := 0; i < 16; i++ {
		fam, n := "sp", 48
		if i >= 8 {
			fam, n = "gnp", 20
		}
		g, _ := workload.Generate(fam, n, rng, wf) // registered family, positive size
		parts = append(parts, g)
	}
	return workload.DisjointUnion(parts...)
}

// mappedCase writes g as an EGRF file inside the working directory's
// .bench_build, maps it, and computes the reference from g in memory.
func mappedCase(g *graph.Graph) (*kernelCase, error) {
	in, err := newInstance(g, contSpec)
	if err != nil {
		return nil, fmt.Errorf("mmap_multi_s: %w", err)
	}
	file := filepath.Join(".bench_build", fmt.Sprintf("perfbench-multi-%d.egrf", os.Getpid()))
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	err = graph.WriteMapped(f, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	var mg *graph.Mapped
	if err == nil {
		mg, err = graph.OpenMapped(file)
	}
	if err != nil {
		os.Remove(file)
		return nil, err
	}
	return &kernelCase{name: "mmap_multi_s", in: in, file: file, mg: mg}, nil
}

// run solves case c once, traced or not, checks the answer, and returns
// the solve's own time in seconds.
func (env *kernelEnv) run(c *kernelCase, traced bool, req int64) (float64, error) {
	in := c.in
	if c.mg != nil {
		var s int
		if traced {
			s = env.rec.begin(req, -1, "core.solve.mapped")
		}
		start := time.Now()
		res, err := core.SolveMappedContinuous(c.mg, in.deadline, in.mdl.SMax, core.ContinuousOptions{})
		secs := time.Since(start).Seconds()
		if traced {
			env.t.time("core.solve.mapped", env.rec.finish(s))
			if err == nil {
				env.t.count("mapped.tasks", float64(res.Tasks))
				env.t.count("mapped.materialized", float64(res.MaterializedTasks))
				env.t.count("mapped.components", float64(res.Components))
				env.t.count("mapped.solves", 1)
			}
		}
		if err != nil {
			return secs, err
		}
		return secs, checkEnergy(res.Energy, in.ref.Energy)
	}
	prob, err := core.NewProblem(in.g, in.deadline)
	if err != nil {
		return 0, err
	}
	var sol *core.Solution
	start := time.Now()
	if traced {
		sol, _, err = dispatchTraced(env.rec, env.t, req, -1, prob, in.mdl, nil)
	} else {
		var pl *plan.Plan
		if pl, err = plan.Analyze(prob, in.mdl, plan.Options{}); err == nil {
			sol, err = pl.Execute()
		}
	}
	secs := time.Since(start).Seconds()
	if err != nil {
		return secs, err
	}
	return secs, checkSolution(sol, in)
}

// checkSolution checks an in-process solution like a served one: energy
// against the reference, and its speeds rebuilt into a schedule that must
// meet the deadline and the model's speeds.
func checkSolution(sol *core.Solution, in *instance) error {
	if err := checkEnergy(sol.Energy, in.ref.Energy); err != nil {
		return err
	}
	if speeds, err := sol.Speeds(); err == nil {
		return checkSchedule(in.g, in.deadline, &in.mdl, speeds, nil)
	}
	return sol.Schedule.Validate(in.deadline, &in.mdl, feasTol*in.deadline)
}

// kernelPhase times rounds over every case until d has elapsed; each
// round solves every case once, in a seeded order.
type kernelPhase struct {
	secs samples   // case name → seconds per solve
	gaps []float64 // caller's lag between one solve's return and the next call, ms
	ops  int
}

func (env *kernelEnv) runPhase(rep *report, d time.Duration, traced bool, req *int64, rng *rand.Rand) *kernelPhase {
	ph := &kernelPhase{secs: samples{}}
	start := time.Now()
	last := time.Time{}
	for time.Since(start) < d || ph.ops == 0 {
		for _, k := range rng.Perm(len(env.cases)) {
			c := env.cases[k]
			if !last.IsZero() {
				ph.gaps = append(ph.gaps, msBetween(last, time.Now()))
			}
			secs, err := env.run(c, traced, *req)
			last = time.Now()
			*req++
			rep.attempted++
			ph.ops++
			if err != nil {
				rep.fail("kernel %s: %v", c.name, err)
				continue
			}
			ph.secs.add(c.name, secs)
		}
	}
	return ph
}

// geo returns the geometric mean over cases of their per-case statistic.
func (ph *kernelPhase) geo(env *kernelEnv, stat func([]float64) float64) float64 {
	var xs []float64
	for _, c := range env.cases {
		if s := ph.secs[c.name]; len(s) > 0 {
			xs = append(xs, stat(s))
		}
	}
	return geomean(xs)
}

// p99 is the nearest-rank p99. A 20-second run solves each case about
// thirty times, so for a case it is that case's slowest solve.
func p99(xs []float64) float64 { return percentile(xs, 99) }

func kernelCensus(rep *report, env *kernelEnv) {
	for _, c := range env.cases {
		rep.census("kernel %s tasks=%d components=%d model=%s", c.name, c.in.g.N(), c.in.comps, c.in.spec.Kind)
	}
}

func runKernel(cfg config) (*report, error) {
	rep := newReport(cfg.out)
	env, setupS, err := timedSetups(func() (*kernelEnv, error) { return setupKernel() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	kernelCensus(rep, env)
	window := time.Duration(cfg.seconds * float64(time.Second))
	var req int64
	if cfg.trace {
		return rep, traceKernel(cfg, rep, env, window)
	}
	ph := env.runPhase(rep, window, false, &req, rand.New(rand.NewSource(cfg.seed)))
	n := len(ph.secs[env.cases[0].name])
	rep.set("latency_p50_ms", 1000*ph.geo(env, median), "ms", n)
	rep.set("latency_p99_ms", 1000*ph.geo(env, p99), "ms", n)
	all := 0.0
	solves := 0
	for _, s := range ph.secs {
		all += sum(s)
		solves += len(s)
	}
	rep.set("throughput_per_s", ratio(float64(solves), all), "1/s", solves)
	rep.set("setup_s", setupS, "s", setupRuns)
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	for _, c := range env.cases {
		rep.note(c.name, median(ph.secs[c.name]), "s", len(ph.secs[c.name]))
	}
	rep.note("failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	return rep, nil
}

// traceKernel runs half the window untraced (the overhead baseline, GC and
// allocation counters) and half with every solve's layers on spans.
func traceKernel(cfg config, rep *report, env *kernelEnv, window time.Duration) error {
	var req int64
	rng := rand.New(rand.NewSource(cfg.seed))
	mem := startMemWindow()
	phA := env.runPhase(rep, window/2, false, &req, rng)
	mallocs, pauses := mem.end()
	env.rec, env.t = newRecorder(), newTally()
	phB := env.runPhase(rep, window/2, true, &req, rng)
	t := env.t

	rep.set("bench.send_lag_p99_ms", percentile(phA.gaps, 99), "ms", len(phA.gaps))
	rep.set("bench.trace_overhead_ratio", ratio(phB.geo(env, median), phA.geo(env, median)), "ratio", phB.ops)
	rep.setAbsent("ratio", "service.transport_share", "service.decode_share", "service.encode_share",
		"service.engine_self_share", "service.store_share", "service.instance_hit_ratio",
		"service.coalesced_ratio", "service.shed_ratio", "service.degraded_ratio",
		"pipeline.stream_self_share", "graph.fingerprint_share", "plan.structure_hit_ratio",
		"core.kernel_hit_ratio", "reclaim.clean_ratio", "reclaim.reuse_ratio", "reclaim.warm_seeded_ratio")
	rep.setAbsent("count", "service.backlog_max")
	rep.setDispatchLayers(t)
	const ip = "continuous-interior-point"
	rep.set("linalg.symbolic_per_solve", ratio(t.counts["symbolic."+ip], t.counts["solves."+ip]), "count", int(t.counts["solves."+ip]))
	rep.set("core.mapped_materialized_ratio", ratio(t.counts["mapped.materialized"], t.counts["mapped.tasks"]), "ratio", int(t.counts["mapped.solves"]))
	rep.set("core.mapped_components", ratio(t.counts["mapped.components"], t.counts["mapped.solves"]), "count", int(t.counts["mapped.solves"]))
	rep.note("core.solve_ms.mapped", median(t.times["core.solve.mapped"]), "ms", len(t.times["core.solve.mapped"]))
	rep.setRuntime(mallocs, phA.ops, pauses)
	return finishTrace(cfg, rep, env.rec)
}
