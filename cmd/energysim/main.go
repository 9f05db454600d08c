// Command energysim solves a single MinEnergy(G, D) instance end to end:
// generate (or load) a task graph, map it, pick an energy model, solve, and
// print the schedule, per-task speeds, energy, and an ASCII Gantt chart.
//
// Examples:
//
//	energysim -gen layered -n 24 -procs 4 -model continuous -smax 2 -factor 2
//	energysim -gen lu -n 5 -procs 4 -model vdd -modes 0.5,1,1.5,2 -factor 1.5 -gantt
//	energysim -graph app.json -procs 2 -model discrete -modes 1,2 -solver bb
//	energysim -gen fork -n 8 -model incremental -smin 0.5 -smax 2 -delta 0.25 -K 8
//	energysim -gen gnp -n 20 -model continuous -plan   (print the per-component routing)
//	energysim -gen layered -n 20 -model continuous -factor 1.8 -replay   (online reclaiming replay)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/reclaim"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "energysim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphFile  = flag.String("graph", "", "load task graph from JSON file instead of generating")
		gen        = flag.String("gen", "layered", "generator: "+strings.Join(workload.Families(), "|"))
		n          = flag.Int("n", 16, "generator size parameter")
		seed       = flag.Int64("seed", 1, "generator seed")
		procs      = flag.Int("procs", 4, "number of processors")
		mapKind    = flag.String("mapping", "list", "mapping: list|rr|single|random")
		mapFile    = flag.String("mapfile", "", "load the mapping from a JSON file instead of generating")
		modelKind  = flag.String("model", "continuous", "model: continuous|discrete|vdd|incremental")
		modesStr   = flag.String("modes", "0.5,1,1.5,2", "modes for discrete/vdd")
		smin       = flag.Float64("smin", 0.5, "incremental smin")
		smax       = flag.Float64("smax", 2, "smax / top speed")
		delta      = flag.Float64("delta", 0.25, "incremental speed increment δ")
		factor     = flag.Float64("factor", 2, "deadline = factor × minimal deadline")
		deadline   = flag.Float64("deadline", 0, "absolute deadline (overrides -factor)")
		solver     = flag.String("solver", "auto", "solver: auto|numeric|bb|sp|greedy|roundup|approx|uniform|allmax")
		kParam     = flag.Int("K", 8, "K for the Theorem 5 approximation")
		showPlan   = flag.Bool("plan", false, "print the structure-aware solve plan (per-component routing) before solving")
		replay     = flag.Bool("replay", false, "replay a jittered execution through an online reclaiming session after solving")
		replayCold = flag.Bool("replay-cold", false, "disable incremental reuse and warm starts during -replay (cold baseline)")
		jitRate    = flag.Float64("jitter-rate", 0.5, "fraction of tasks whose duration deviates during -replay")
		jitEarly   = flag.Float64("jitter-early", 0.35, "-replay: deviating tasks may finish up to this fraction early")
		jitLate    = flag.Float64("jitter-late", 0.05, "-replay: deviating tasks may finish up to this fraction late")
		jitSeed    = flag.Int64("jitter-seed", 1, "-replay jitter seed")
		gantt      = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		report     = flag.Bool("report", false, "print per-processor utilization and energy report")
		compare    = flag.Bool("compare", false, "solve under ALL four models (plus baselines) and print a comparison table; ignores -model/-solver")
		dotOut     = flag.String("dot", "", "write the execution graph in DOT format to this file")
		jsonOut    = flag.Bool("json", false, "print the solution as JSON")
	)
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	g, err := loadOrGenerate(*graphFile, *gen, *n, rng)
	if err != nil {
		return err
	}
	var mapping *platform.Mapping
	if *mapFile != "" {
		mapping, err = loadMapping(*mapFile, g)
	} else {
		mapping, err = buildMapping(g, *mapKind, *procs, rng)
	}
	if err != nil {
		return err
	}
	exec, err := platform.BuildExecutionGraph(g, mapping)
	if err != nil {
		return err
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(exec.ToDOT("execution-graph")), 0o644); err != nil {
			return err
		}
	}
	dmin, err := exec.MinimalDeadline(*smax)
	if err != nil {
		return err
	}
	D := *deadline
	if D == 0 {
		D = dmin * *factor
	}
	prob, err := core.NewProblem(exec, D)
	if err != nil {
		return err
	}
	fmt.Printf("instance: %s, %d processors, deadline %.4g (minimal %.4g)\n",
		g.String(), mapping.NumProcs(), D, dmin)

	if *compare {
		return runComparison(prob, mapping, *modesStr, *smin, *smax, *delta, *kParam)
	}

	m, err := buildModel(*modelKind, *modesStr, *smin, *smax, *delta)
	if err != nil {
		return err
	}
	fmt.Printf("model: %s\n", m)

	if *showPlan {
		if err := printPlan(prob, m, *solver, *kParam); err != nil {
			return err
		}
	}

	sol, err := solve(prob, m, *solver, *kParam)
	if err != nil {
		return err
	}
	if err := prob.Verify(sol, 1e-6); err != nil {
		return fmt.Errorf("solution failed verification: %w", err)
	}

	printSummary(os.Stdout, sol, D)
	printSpeeds(prob, sol)
	if *report {
		rep, err := sol.Schedule.BuildReport(mapping)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(rep.String())
	}
	if *gantt {
		fmt.Println()
		fmt.Print(sol.Schedule.Gantt(mapping, 72))
	}
	if *replay {
		fmt.Println()
		jit := workload.Jitter{Seed: *jitSeed, Rate: *jitRate, Early: *jitEarly, Late: *jitLate}
		if err := runReplay(prob, m, sol, jit, *replayCold); err != nil {
			return err
		}
	}
	if *jsonOut {
		return printJSON(sol)
	}
	return nil
}

// printSummary prints the solver, energy and makespan, and the solver's
// diagnostics: work counters, the certified lower bound with the gap it
// leaves, and an approximation's a-priori guarantee.
func printSummary(w io.Writer, sol *core.Solution, D float64) {
	fmt.Fprintf(w, "solver: %s\n", sol.Stats.Algorithm)
	fmt.Fprintf(w, "energy: %.6g   makespan: %.6g / %.6g\n", sol.Energy, sol.Schedule.Makespan, D)
	if sol.Stats.Nodes > 0 {
		fmt.Fprintf(w, "branch-and-bound nodes: %d\n", sol.Stats.Nodes)
	}
	if sol.Stats.Pivots > 0 {
		fmt.Fprintf(w, "simplex pivots: %d\n", sol.Stats.Pivots)
	}
	if sol.Stats.Newton > 0 {
		fmt.Fprintf(w, "newton iterations: %d\n", sol.Stats.Newton)
	}
	if lb := sol.Stats.LowerBound; lb > 0 {
		fmt.Fprintf(w, "lower bound: %.6g (gap %.2g)\n", lb, (sol.Energy-lb)/sol.Energy)
	}
	if !sol.Stats.Exact && !math.IsInf(sol.Stats.BoundFactor, 1) {
		fmt.Fprintf(w, "approximation guarantee: within %.4g× of optimal\n", sol.Stats.BoundFactor)
	}
}

// runReplay streams a jittered execution through a reclaiming session and
// reports, per event, what the runtime did — and at the end, the energy
// the session reclaimed over never re-planning.
func runReplay(p *core.Problem, m model.Model, sol *core.Solution, jit workload.Jitter, cold bool) error {
	mode := "warm incremental"
	if cold {
		mode = "cold full re-solve"
	}
	fmt.Printf("replay: online reclaiming session (%s), jitter seed %d rate %.2g early %.2g late %.2g\n",
		mode, jit.Seed, jit.Rate, jit.Early, jit.Late)
	factors, err := jit.Factors(p.G.N())
	if err != nil {
		return err
	}
	sess, err := reclaim.NewSession(p, m, sol, reclaim.Options{Cold: cold})
	if err != nil {
		return err
	}
	results, replayErr := sess.Replay(factors)
	shown := 0
	for _, res := range results {
		if res.Clean {
			continue
		}
		if shown < 12 {
			fmt.Printf("  t=%-9.4g task %-4d %+.1f%% duration → re-solved %d component(s) (%d reused%s), residual energy %.6g\n",
				res.Finish, res.Task, 100*(res.ActualDuration/res.PlannedDuration-1),
				res.Resolved, res.Reused, warmNote(res), res.ResidualEnergy)
		}
		shown++
	}
	if shown > 12 {
		fmt.Printf("  … %d more re-planning events\n", shown-12)
	}
	st := sess.Stats()
	fmt.Printf("events: %d (%d on-plan, %d replans); components: %d re-solved, %d replayed verbatim, %d warm-seeded\n",
		st.Events, st.Clean, st.Replans, st.ComponentsResolved, st.ComponentsReused, st.WarmSeeded)
	if replayErr != nil {
		return fmt.Errorf("replay stopped: %w", replayErr)
	}
	incurred, _ := sess.Energy()
	// The no-reclaim baseline: every task executes its originally planned
	// speed profile, time-stretched by its jitter factor (work conserved:
	// every segment's speed scales by 1/f, its dwell time by f), so the
	// profile's energy scales by 1/f². This keeps the baseline consistent
	// across models — a Vdd task's mode-mixed profile stays a mode-mixed
	// profile — and makes a zero-deviation replay report exactly 0%
	// reclaimed.
	baseline := 0.0
	for i := 0; i < p.G.N(); i++ {
		f := factors[i]
		baseline += sol.Schedule.Profiles[i].Energy() / (f * f)
	}
	final, err := sess.Schedule()
	if err != nil {
		return err
	}
	fmt.Printf("planned energy %.6g → executed %.6g (no-reclaim baseline %.6g, reclaimed %.4g%%)\n",
		sol.Energy, incurred, baseline, 100*(1-incurred/baseline))
	status := "met"
	if final.Makespan > p.Deadline*(1+1e-9) {
		status = "MISSED"
	}
	fmt.Printf("deadline %.6g %s (actual makespan %.6g)\n", p.Deadline, status, final.Makespan)
	return nil
}

func warmNote(res reclaim.EventResult) string {
	if res.WarmSeeded > 0 {
		return ", warm"
	}
	return ""
}

// printPlan renders the structure-aware routing table the planner would use
// for this instance. CLI-only solver names (numeric, uniform, allmax) have
// no planner selector and fall back to auto for the display.
func printPlan(p *core.Problem, m model.Model, solver string, K int) error {
	algo := solver
	switch solver {
	case plan.AlgoAuto, plan.AlgoBB, plan.AlgoSP, plan.AlgoGreedy, plan.AlgoRoundUp, plan.AlgoApprox:
	default:
		algo = plan.AlgoAuto
	}
	pl, err := plan.Analyze(p, m, plan.Options{Algorithm: algo, K: K})
	if err != nil {
		return err
	}
	fmt.Print(pl.String())
	return nil
}

func loadOrGenerate(file, gen string, n int, rng *rand.Rand) (*graph.Graph, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		g := graph.New()
		if err := json.Unmarshal(data, g); err != nil {
			return nil, err
		}
		return g, nil
	}
	return workload.Generate(gen, n, rng, graph.UniformWeights(1, 5))
}

// runComparison solves the instance under every model plus the baselines
// and prints one row per strategy, ordered by energy.
func runComparison(p *core.Problem, mapping *platform.Mapping, modesStr string, smin, smax, delta float64, K int) error {
	modes, err := parseModes(modesStr)
	if err != nil {
		return err
	}
	cm, err := model.NewContinuous(smax)
	if err != nil {
		return err
	}
	vm, err := model.NewVddHopping(modes)
	if err != nil {
		return err
	}
	dm, err := model.NewDiscrete(modes)
	if err != nil {
		return err
	}
	im, err := model.NewIncremental(smin, smax, delta)
	if err != nil {
		return err
	}
	type row struct {
		name string
		sol  *core.Solution
		err  error
	}
	rows := []row{}
	add := func(name string, sol *core.Solution, err error) {
		rows = append(rows, row{name, sol, err})
	}
	cont, err := p.SolveContinuous(smax, core.ContinuousOptions{})
	add("continuous (optimal)", cont, err)
	{
		sol, err := p.SolveVddHopping(vm)
		add("vdd-hopping (LP optimal)", sol, err)
	}
	{
		var sol *core.Solution
		var err error
		if p.G.N() <= 16 {
			sol, err = p.SolveDiscreteBB(dm, core.DiscreteOptions{})
			add("discrete (exact B&B)", sol, err)
		} else {
			sol, err = p.SolveDiscreteGreedy(dm)
			add("discrete (greedy)", sol, err)
		}
	}
	{
		sol, err := p.SolveDiscreteRoundUp(dm, core.ContinuousOptions{})
		add("discrete (round-up, Prop. 1)", sol, err)
	}
	{
		sol, err := p.SolveIncrementalApprox(im, K, core.ContinuousOptions{})
		add(fmt.Sprintf("incremental (Thm 5, K=%d)", K), sol, err)
	}
	{
		sol, err := p.SolvePerProcessorContinuous(mapping, smax, core.ContinuousOptions{})
		add("per-processor DVFS", sol, err)
	}
	{
		sol, err := p.SolveUniform(cm)
		add("uniform global speed", sol, err)
	}
	{
		sol, err := p.SolveAllMax(cm)
		add("all at smax (no DVFS)", sol, err)
	}
	fmt.Printf("\n%-30s %12s %14s %10s\n", "strategy", "energy", "vs continuous", "makespan")
	for _, r := range rows {
		if r.err != nil {
			fmt.Printf("%-30s %12s   (%v)\n", r.name, "—", r.err)
			continue
		}
		if verr := p.Verify(r.sol, 1e-6); verr != nil {
			return fmt.Errorf("%s failed verification: %w", r.name, verr)
		}
		ratio := r.sol.Energy / cont.Energy
		fmt.Printf("%-30s %12.4g %13.3f× %10.4g\n", r.name, r.sol.Energy, ratio, r.sol.Schedule.Makespan)
	}
	return nil
}

func loadMapping(file string, g *graph.Graph) (*platform.Mapping, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var m platform.Mapping
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if err := m.Validate(g); err != nil {
		return nil, err
	}
	return &m, nil
}

func buildMapping(g *graph.Graph, kind string, procs int, rng *rand.Rand) (*platform.Mapping, error) {
	switch kind {
	case "list":
		return platform.ListSchedule(g, procs)
	case "rr":
		return platform.RoundRobin(g, procs)
	case "single":
		return platform.SingleProcessor(g)
	case "random":
		return platform.RandomMapping(g, procs, rng.Intn)
	}
	return nil, fmt.Errorf("unknown mapping %q", kind)
}

func buildModel(kind, modesStr string, smin, smax, delta float64) (model.Model, error) {
	switch kind {
	case "continuous":
		return model.NewContinuous(smax)
	case "discrete":
		modes, err := parseModes(modesStr)
		if err != nil {
			return model.Model{}, err
		}
		return model.NewDiscrete(modes)
	case "vdd":
		modes, err := parseModes(modesStr)
		if err != nil {
			return model.Model{}, err
		}
		return model.NewVddHopping(modes)
	case "incremental":
		return model.NewIncremental(smin, smax, delta)
	}
	return model.Model{}, fmt.Errorf("unknown model %q", kind)
}

func parseModes(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	modes := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad mode %q: %w", p, err)
		}
		modes = append(modes, v)
	}
	sort.Float64s(modes)
	return modes, nil
}

// solve runs the CLI-only solvers (numeric, uniform, allmax) directly and
// every planner selector through plan.Analyze + Execute, so the solver that
// runs is the one -plan prints.
func solve(p *core.Problem, m model.Model, solver string, K int) (*core.Solution, error) {
	switch solver {
	case "numeric":
		return p.SolveContinuousNumeric(m.SMax, core.ContinuousOptions{})
	case "uniform":
		return p.SolveUniform(m)
	case "allmax":
		return p.SolveAllMax(m)
	}
	pl, err := plan.Analyze(p, m, plan.Options{Algorithm: solver, K: K})
	if err != nil {
		return nil, err
	}
	return pl.Execute()
}

func printSpeeds(p *core.Problem, sol *core.Solution) {
	fmt.Println("per-task schedule (first 20 tasks):")
	limit := p.G.N()
	if limit > 20 {
		limit = 20
	}
	for i := 0; i < limit; i++ {
		prof := sol.Schedule.Profiles[i]
		var desc string
		if len(prof) == 1 {
			desc = fmt.Sprintf("speed %.4g", prof[0].Speed)
		} else {
			segs := make([]string, len(prof))
			for k, seg := range prof {
				segs[k] = fmt.Sprintf("%.4g×%.4g", seg.Speed, seg.Duration)
			}
			desc = "hops " + strings.Join(segs, " → ")
		}
		fmt.Printf("  %-10s w=%-8.4g [%7.4g, %7.4g]  %s\n",
			p.G.Name(i), p.G.Weight(i), sol.Schedule.Start[i], sol.Schedule.Finish[i], desc)
	}
	if p.G.N() > limit {
		fmt.Printf("  … %d more tasks\n", p.G.N()-limit)
	}
}

func printJSON(sol *core.Solution) error {
	out := struct {
		Energy   float64     `json:"energy"`
		Makespan float64     `json:"makespan"`
		Start    []float64   `json:"start"`
		Finish   []float64   `json:"finish"`
		Speeds   [][]float64 `json:"profiles"` // flat [speed, duration, …] per task
		Algo     string      `json:"algorithm"`
	}{
		Energy:   sol.Energy,
		Makespan: sol.Schedule.Makespan,
		Start:    sol.Schedule.Start,
		Finish:   sol.Schedule.Finish,
		Algo:     sol.Stats.Algorithm,
	}
	for _, prof := range sol.Schedule.Profiles {
		var flat []float64
		for _, seg := range prof {
			flat = append(flat, seg.Speed, seg.Duration)
		}
		out.Speeds = append(out.Speeds, flat)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
