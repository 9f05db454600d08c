// Package energysched reproduces, as a library, the system of
//
//	G. Aupy, A. Benoit, F. Dufossé, Y. Robert.
//	"Brief Announcement: Reclaiming the Energy of a Schedule,
//	Models and Algorithms", SPAA 2011.
//
// The problem: an application task graph has already been mapped onto a set
// of identical processors (an ordered task list per processor — a legacy
// mapping, an affinity-driven one, a security-driven pre-allocation…). The
// mapping cannot be changed, but every task's execution speed can. Running a
// task of cost w at speed s takes w/s time and burns w·s² joules (dynamic
// power s³). MinEnergy(G, D) asks for the speeds minimizing total energy
// while finishing everything by a deadline D on the execution graph G — the
// precedence edges plus the serialization edges the mapping induces.
//
// Four speed models are supported, with the paper's complexity landscape
// implemented in full:
//
//   - Continuous: any speed in (0, smax]. Closed forms for chains and forks
//     (Theorem 1), a linear-time equivalent-weight algebra for trees and
//     series-parallel graphs (Theorem 2), and a primal-dual interior-point
//     solver for the geometric program on arbitrary DAGs.
//   - Vdd-Hopping: a fixed mode set, switchable mid-task. Solved exactly by
//     linear programming (Theorem 3), a simplex priced by Dantzig's rule;
//     chains in closed form, every task between the two modes that bracket
//     W/D.
//   - Discrete: a fixed mode set, one mode per task. NP-complete
//     (Theorem 4); exact branch-and-bound and an exact Pareto-frontier
//     dynamic program for series-parallel shapes (parallel nodes merge
//     their children's staircases in one walk, series nodes emit theirs
//     from a heap, and both prune against the deadline and the greedy's
//     energy), plus greedy and round-up heuristics.
//   - Incremental: evenly spaced modes smin + i·δ. NP-complete, but
//     approximable within (1+δ/smin)²(1+1/K)² in polynomial time
//     (Theorem 5), implemented as SolveIncrementalApprox.
//
// A typical session:
//
//	g := energysched.NewGraph()
//	a := g.AddTask("prep", 4)
//	b := g.AddTask("left", 6)
//	c := g.AddTask("right", 2)
//	g.MustAddEdge(a, b)
//	g.MustAddEdge(a, c)
//
//	mapping, _ := energysched.ListSchedule(g, 2)
//	exec, _ := energysched.BuildExecutionGraph(g, mapping)
//	prob, _ := energysched.NewProblem(exec, 12.0)
//
//	cont, _ := prob.SolveContinuous(2.0, energysched.ContinuousOptions{})
//	fmt.Println("continuous optimum:", cont.Energy)
//
//	modes, _ := energysched.NewVddHopping([]float64{0.5, 1, 2})
//	vdd, _ := prob.SolveVddHopping(modes)
//	fmt.Println("vdd-hopping optimum:", vdd.Energy)
//
// # Structure-aware planner
//
// The complexity landscape above is one routing table, written once as
// SelectRoute in internal/core: SolveAuto, SolveContinuous, and the planner
// all read its rows. The planner makes it explainable: Explain splits the
// execution graph into weakly-connected components (energy is additive
// across independent subgraphs sharing the deadline), classifies each as
// chain / fork / join / tree / series-parallel / general DAG, and routes it
// to the cheapest solver its structure admits — closed forms and the
// equivalent-weight algebra where Theorems 1–2 apply, the Vdd-Hopping chain
// closed form (every task at W/(D − r₀) between its two bracketing modes,
// residual chains included unless a release sits past the head), the exact
// Pareto DP on series-parallel shapes, branch-and-bound, the interior point
// or the Vdd-Hopping LP only where nothing cheaper exists. SolveAuto
// classifies a component only where its row depends on the class:
// Continuous and Discrete components without residual constraints, and
// every Vdd-Hopping component, which it checks for a chain. The resulting
// Plan is explainable (per-component solver, rationale, a-priori bound
// factor, cost estimate) and executable:
// Execute runs it on the planner's one component executor — the same
// pipeline (split → route → solve → merge) behind the serving layer's solves
// and streams and the reclaiming runtime's replans — which solves
// independent components concurrently on a bounded worker pool and merges
// the solutions by task ID.
//
//	pl, _ := energysched.Explain(prob, m, energysched.PlanOptions{})
//	fmt.Print(pl)          // the routing table, one line per component
//	sol, _ := pl.Execute() // components solve in parallel, energies sum
//
// Problem.SolvePlanned is the one-call form (split, solve concurrently,
// merge) without the planner's explanation and caches, and Problem.SolveAuto
// the same routing table applied to one component. On a disconnected
// multi-component workload the planner beats one monolithic interior-point
// solve by an order of magnitude (the
// mixed-8-continuous-planner and -direct scenarios of cmd/energybench).
//
// # Sparse interior-point kernel
//
// General DAGs — every structure the closed forms and the SP algebra
// cannot take — land in a Mehrotra predictor-corrector primal-dual
// interior point, and that kernel is graph-structured end to end. One
// front end builds its program for every continuous solver: the paper's
// s³ model, the generalized s^α extension (the rows do not depend on α,
// only the objective does) and the per-processor program, which adds just
// its own rows and objective. Each
// constraint row of MinEnergy(G, D) has at most three nonzeros, so the
// Newton matrix ∇²f + Aᵀdiag(λ/s)A has exactly the sparsity of the
// execution graph: the solvers emit constraints in compressed-sparse-row
// form, the kernel assembles the matrix directly in sparse form through
// scatter maps precomputed at setup, and a sparse LDLᵀ under a
// fill-reducing ordering factors it with the symbolic analysis
// (elimination tree, column counts) computed once and reused across all
// iterations. Each iteration factors once and solves twice (predictor and
// corrector); a few dozen iterations reach the duality gap the log-barrier
// method needed hundreds of Newton steps for. Two orderings compete at
// compile time — reverse Cuthill–McKee and graph-bisection nested
// dissection — and the kernel keeps whichever predicts less symbolic fill
// for the instance at hand. A solve runs sequentially on its caller's
// goroutine, so its answer is the same bits on any core count;
// concurrency comes from solving independent components and requests
// at once. One iteration costs O(nnz(L)) and performs zero heap
// allocations (the iterate, slack, multiplier and direction vectors are
// preallocated; a regression test pins the iteration at 0 allocs/op).
// Every answer certifies itself: the kernel returns its final
// multipliers, and their Lagrangian dual, reported as
// Stats.LowerBound, bounds the optimal energy from below, so
// Energy − LowerBound bounds the answer's suboptimality without a second
// solver. In practice this moves the interior point from topping out
// around 256 tasks (the dense log-barrier method it replaced) to solving
// 2048-task instances in a tenth of a second.
//
// # Serving layer
//
// Beyond the library API, the package ships a concurrent solve service for
// answering many instances on demand. An Engine dispatches single and
// batched requests across a bounded worker pool and fronts the solvers with
// an LRU cache keyed by a canonical hash of the execution graph, deadline,
// and model parameters, so repeated instances skip the solver entirely:
//
//	eng := energysched.NewEngine(energysched.EngineOptions{})
//	resp, err := eng.Solve(ctx, &energysched.SolveRequest{
//		Graph:    g,
//		Deadline: 12,
//		Model:    energysched.SolveModelSpec{Kind: "continuous", SMax: 2},
//	})
//
// Batches run concurrently with per-request error isolation:
//
//	results := eng.SolveBatch(ctx, reqs) // one BatchResult per request
//
// Every solve routes through the structure-aware planner, and the response
// carries the plan that produced it, so results are auditable end to end.
//
// Internally, dispatch is built on a small generic stage framework
// (internal/pipeline): typed Stages connected by channels, each stage
// with its own worker count and buffer, with first-error-wins
// cancellation propagated through a shared context. Solve dispatch
// instantiates it as split → classify/route → solve → merge:
// weakly-connected components stream out of classification into the
// routed solver workers as they are found, and each solved component
// is available the moment its solver returns. The monolithic Solve waits
// for the merge; SolveStream emits the intermediate stages as events —
// a `plan` event per routing decision, a `component` event per solved
// sub-schedule with the running energy total — so a client sees the
// first result while later components are still solving, and a client
// that disconnects cancels the stream's remaining work.
//
// The same Engine serves HTTP via NewSolveHandler — JSON endpoints
// POST /v1/solve, POST /v1/solve/stream (the event stream above as SSE),
// POST /v1/solve/batch, POST /v1/plan (analyze without
// solving), GET /v1/stats, and GET /healthz — packaged as the
// cmd/energyserver binary. SolveRequest is simultaneously the programmatic
// input and the wire format; see that type for the field catalogue.
//
// The serving layer is overload-resilient by construction
// (internal/resilience): a weighted fair-queuing admission gate splits a
// bounded backlog across the tenants currently active (X-Tenant header or
// the request's tenant field), so one flooding tenant exhausts its own
// share — answered 429 tenant_quota with a queue-depth-derived Retry-After
// — while other tenants' latency stays intact; a full global gate answers
// 429 overloaded. Requests whose client budget is already spent are shed
// before the pool, and past a queue-depth watermark the planner reroutes
// components from the exact solvers to the bounded uniform-speed heuristic
// (responses marked degraded, with the a-priori bound factor, never
// cached) until the queue drains. A build-tag-free fault-injection hook at
// the solver, session-store, pipeline, and mmap sites drives the chaos
// suite and energyload -chaos; panics anywhere in the solve path are
// contained at recovery barriers — for every component solve, the
// executor's pipeline stage runner — classified as internal errors, and
// counted, and a panic recovered without injection armed fails the
// harness.
//
// # Online reclaiming
//
// Solving once is the paper's offline story; the runtime in
// internal/reclaim keeps optimizing while the schedule executes. A
// ReclaimSession wraps a solved problem and ingests CompletionEvents —
// actual task durations, which deviate from the plan. Completed tasks
// freeze at their actual finish times; the remaining tasks form a residual
// instance (the induced subgraph with per-task release times under the
// original deadline) that re-solves incrementally: only the components a
// deviation dirtied run a solver, warm-started from the previous solution
// (interior-point centering from the previous speeds, branch-and-bound
// from the previous incumbent, Pareto-DP pruning against the previous
// energy when it beats the greedy's; the Vdd-Hopping solvers start cold),
// while untouched components replay verbatim. On-plan completions cost
// nothing at all. Warm starts never change an answer — the property suite
// pins warm ≡ cold to 1e-9 across all four models — they only shrink the
// work.
//
//	sess, _ := energysched.NewReclaimSession(prob, m, sol, energysched.ReclaimOptions{})
//	res, _ := sess.ApplyEvent(energysched.CompletionEvent{Task: 0, ActualDuration: 2.0})
//	fmt.Println("re-solved components:", res.Resolved, "new residual energy:", res.ResidualEnergy)
//
// Over HTTP the same runtime is the session subsystem: POST /v1/sessions
// (solve + open), POST /v1/sessions/{id}/events (stream completions),
// GET /v1/sessions/{id}/schedule (merged execution state), and
// GET /v1/sessions/{id}/watch (an SSE stream pushing each re-solved
// residual component as replans finish — the push alternative to
// polling the schedule), sharing the
// engine's worker pool and instance cache. The energysim -replay flag and
// examples/reclaim demonstrate full jittered replays; the Jitter type
// makes them reproducible.
//
// # Benchmarks
//
// Performance is measured through the scenario registry in
// internal/benchkit, driven by the cmd/energybench CLI: named scenarios
// pair the task-graph families of internal/workload with every energy
// model and five solve paths (direct kernel, planner-routed, end-to-end
// HTTP service under concurrent load, progressive SSE streaming timed to
// the first or last component, and warm-vs-cold online reclaiming
// replays), producing one canonical BENCH.json
// report whose per-scenario p50 the CI regression gate diffs against the
// committed BENCH_baseline.json. Reports also record heap allocation
// metrics (allocs_per_op, bytes_per_op — a backwards-compatible
// energybench/v1 addition; baselines predating it compare cleanly), and
// the registry is tiered: the default tier is the fast CI table, the
// large tier pins the sparse interior-point kernel on 128–4096-task
// instances, and the huge tier generates 32k–1M-task instances straight
// to disk and solves them through the memory-mapped EGRF path
// (internal/graph.Mapped + internal/core.SolveMappedContinuous, which
// keeps only classification state and at most GOMAXPROCS component
// graphs beside the mapping), recording peak RSS per scenario so the
// out-of-core claim stays measured, not asserted. `energybench -list`
// prints the registry; `make bench-compare` runs the default gate,
// `make bench-large` the large-N gate, and `make bench-huge` the
// out-of-core tier locally.
//
// Everything is pure Go, standard library only. The experiment harness in
// cmd/experiments regenerates the comparative study (T1–T5, F1–F5, A1–A4)
// listed in the internal/exps package doc.
package energysched
