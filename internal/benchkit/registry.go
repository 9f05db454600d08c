package benchkit

import (
	"repro/internal/service"
	"repro/internal/workload"
)

// Canonical model parameterizations of the registry. Names appear in
// scenario names: continuous, discrete, vdd, incremental.
var (
	contModel = service.ModelSpec{Kind: "continuous", SMax: 2}
	discModel = service.ModelSpec{Kind: "discrete", Modes: []float64{0.5, 1, 2}}
	vddModel  = service.ModelSpec{Kind: "vdd-hopping", Modes: []float64{0.5, 1, 2}}
	incrModel = service.ModelSpec{Kind: "incremental", SMin: 0.5, SMax: 2, Delta: 0.25}
	// vddLadder is the richer twelve-mode DVFS ladder of the reclaim
	// scenarios.
	vddLadder = service.ModelSpec{Kind: "vdd-hopping",
		Modes: []float64{0.5, 0.636, 0.772, 0.909, 1.045, 1.181, 1.318, 1.454, 1.59, 1.727, 1.863, 2}}
)

// Registry returns the full scenario table, in run order. Names follow
// family-n-model-path (plus a variant suffix for the service cache
// scenarios) so -run patterns can slice by any axis.
//
// Coverage by construction (kept honest by TestRegistryCoverage):
// every solve path (direct, planner, service, stream, reclaim), all four
// energy models, and the structural spectrum — closed-form shapes (chain, fork),
// the SP/tree algebra, interior-point DAGs (layered, gnp, fft, stencil),
// application graphs (lu, mapreduce, pipeline), and the disconnected
// multi-component workload the planner parallelizes.
func Registry() []Scenario {
	return []Scenario{
		// --- direct path: raw solver kernels ------------------------------
		// Theorem 1 closed forms: linear-time, measures dispatch overhead.
		{Name: "chain-256-continuous-direct", Family: "chain", N: 256, Seed: 11, Model: contModel, Path: PathDirect},
		{Name: "fork-128-continuous-direct", Family: "fork", N: 128, Seed: 12, Model: contModel, Path: PathDirect},
		// Theorem 2 equivalent-weight algebra on SP shapes.
		{Name: "sp-96-continuous-direct", Family: "sp", N: 96, Seed: 13, Model: contModel, Path: PathDirect},
		{Name: "tree-96-continuous-direct", Family: "tree", N: 96, Seed: 14, Model: contModel, Path: PathDirect},
		// General DAGs: the interior-point geometric program (§2.1).
		{Name: "layered-30-continuous-direct", Family: "layered", N: 30, Seed: 15, Model: contModel, Path: PathDirect},
		{Name: "gnp-24-continuous-direct", Family: "gnp", N: 24, Seed: 16, Model: contModel, Path: PathDirect},
		// Discrete: Pareto DP on SP shapes, branch-and-bound on a DAG.
		// NP-complete (Theorem 4): instances stay small by necessity.
		{Name: "chain-12-discrete-direct", Family: "chain", N: 12, Seed: 17, Model: discModel, Path: PathDirect},
		{Name: "sp-12-discrete-direct", Family: "sp", N: 12, Seed: 18, Model: discModel, Path: PathDirect},
		{Name: "gnp-10-discrete-direct", Family: "gnp", N: 10, Seed: 19, Model: discModel, Path: PathDirect},
		// Vdd-Hopping: the Theorem 3 LP.
		{Name: "forkjoin-8-vdd-direct", Family: "forkjoin", N: 8, Seed: 20, Model: vddModel, Path: PathDirect},
		{Name: "lu-4-vdd-direct", Family: "lu", N: 4, Seed: 21, Model: vddModel, Path: PathDirect},
		// Incremental: Theorem 5 relaxation + rounding.
		{Name: "chain-32-incremental-direct", Family: "chain", N: 32, Seed: 22, Model: incrModel, Path: PathDirect},
		{Name: "stencil-5-incremental-direct", Family: "stencil", N: 5, Seed: 23, Model: incrModel, Path: PathDirect},
		// Monolithic baseline for the disconnected workload below: one big
		// interior-point solve. Expensive — fewer reps.
		{Name: "multi-4-continuous-direct", Family: "multi", N: 4, Seed: 24, Model: contModel, Path: PathDirect, Warmup: 1, Reps: 3},
		// The structurally mixed twin pair: six
		// 160-task chains plus two layered DAGs (~1000 tasks). The
		// monolithic direct solve runs the interior point over the whole
		// union; the planner routes the chains to the Theorem 1 closed
		// form and runs the kernel only on the two small layered
		// components — a structure-routing win that holds on any core
		// count. (A uniform multi-N pair stopped being a showcase when
		// the sparse kernel made the monolithic solve near-linear.)
		{Name: "mixed-8-continuous-direct", Family: "mixed", N: 8, Seed: 34, Model: contModel, Path: PathDirect, Warmup: 1, Reps: 3},

		// --- planner path: structure-aware routing ------------------------
		{Name: "layered-30-continuous-planner", Family: "layered", N: 30, Seed: 15, Model: contModel, Path: PathPlanner},
		{Name: "sp-96-continuous-planner", Family: "sp", N: 96, Seed: 13, Model: contModel, Path: PathPlanner},
		{Name: "fft-3-continuous-planner", Family: "fft", N: 3, Seed: 25, Model: contModel, Path: PathPlanner},
		// The planner's headline case: independent components solved
		// concurrently vs the monolithic twins above (same seeds).
		{Name: "multi-4-continuous-planner", Family: "multi", N: 4, Seed: 24, Model: contModel, Path: PathPlanner, Warmup: 1, Reps: 3},
		{Name: "mixed-8-continuous-planner", Family: "mixed", N: 8, Seed: 34, Model: contModel, Path: PathPlanner, Warmup: 1, Reps: 3},
		{Name: "mapreduce-8-discrete-planner", Family: "mapreduce", N: 8, Seed: 26, Model: discModel, Path: PathPlanner},
		{Name: "tree-12-discrete-planner", Family: "tree", N: 12, Seed: 27, Model: discModel, Path: PathPlanner},
		{Name: "pipeline-8-vdd-planner", Family: "pipeline", N: 8, Seed: 28, Model: vddModel, Path: PathPlanner},
		{Name: "forkjoin-8-incremental-planner", Family: "forkjoin", N: 8, Seed: 29, Model: incrModel, Path: PathPlanner},

		// --- service path: end-to-end HTTP under concurrent load ----------
		// Distinct instances per request: a steady stream of cache misses.
		{Name: "layered-16-continuous-service", Family: "layered", N: 16, Seed: 30, Model: contModel, Path: PathService},
		{Name: "sp-10-discrete-service", Family: "sp", N: 10, Seed: 31, Model: discModel, Path: PathService},
		{Name: "chain-32-vdd-service", Family: "chain", N: 32, Seed: 32, Model: vddModel, Path: PathService},
		{Name: "gnp-16-incremental-service", Family: "gnp", N: 16, Seed: 33, Model: incrModel, Path: PathService},
		// The repeated-instance pair: every request full-solves (cold) vs
		// every request a cache hit (hit).
		// 240 tasks keeps the solve — not HTTP transport — the dominant
		// cost the cache removes, now that the sparse kernel has made
		// small interior-point instances transport-cheap.
		{Name: "layered-240-continuous-service-cold", Family: "layered", N: 240, Seed: 15, Model: contModel, Path: PathService,
			Repeat: true, NoCache: true, Requests: 16, Warmup: 1, Reps: 3},
		{Name: "layered-240-continuous-service-hit", Family: "layered", N: 240, Seed: 15, Model: contModel, Path: PathService,
			Repeat: true, Requests: 64},
		// The structure-warm pair behind the amortization layer: one SP
		// shape under per-request value jitter, so every request misses
		// the instance cache by key. structure-cold also disables the
		// structure cache, paying the full structural bill per request —
		// classification, SP recognition, and the SPExpr build: with linear
		// SP recognition, cold p50 runs about 1.2× hit's and 1.34× its
		// allocations. structure-hit keeps
		// the cache: after the warmup rep compiles the shape, each request
		// re-clothes the cached SPExpr with its jittered weights and only
		// evaluates. The p50 ratio and the allocs/op drop of this pair are
		// the cache's headline numbers — CI gates allocs/op on the hit
		// side (see Compare).
		{Name: "sp-256-continuous-structure-cold", Family: "sp", N: 256, Seed: 13, Model: contModel, Path: PathService,
			Repeat: true, NoCache: true, NoStructure: true, JitterValues: 0.2, Requests: 32, Warmup: 1, Reps: 3},
		{Name: "sp-256-continuous-structure-hit", Family: "sp", N: 256, Seed: 13, Model: contModel, Path: PathService,
			Repeat: true, NoCache: true, JitterValues: 0.2, Requests: 32, Warmup: 1, Reps: 3},

		// --- stream path: progressive results over /v1/solve/stream -------
		// The same 32-component instance three ways: one monolithic
		// POST /v1/solve (the client sees nothing until the whole union is
		// solved), the stream timed to its first merged component, and the
		// stream timed to its terminal result. 32 interior-point components
		// solved by one plan worker make the monolithic answer the sum of
		// all solves while the first component streams out after just one —
		// stream-first landing far inside the monolithic time is the
		// streaming API's reason to exist; stream-last vs service-mono
		// bounds the overhead of progressive delivery.
		{Name: "multi-32-continuous-service-mono", Family: "multi", N: 32, Seed: 35, Model: contModel, Path: PathService,
			Repeat: true, NoCache: true, Clients: 1, Requests: 1, Warmup: 1, Reps: 3},
		{Name: "multi-32-continuous-stream-first", Family: "multi", N: 32, Seed: 35, Model: contModel, Path: PathStream,
			StreamFirst: true, NoCache: true, Warmup: 1, Reps: 3},
		{Name: "multi-32-continuous-stream-last", Family: "multi", N: 32, Seed: 35, Model: contModel, Path: PathStream,
			NoCache: true, Warmup: 1, Reps: 3},

		// --- reclaim path: online re-solving of executing schedules -------
		// Each warm/cold pair replays the identical jittered execution
		// (same instance, same factors); cold re-solves the full residual
		// at every deviation, warm re-solves only the dirtied components,
		// seeded from the previous solution. Warm vs cold on one line of
		// BENCH output is the reclaiming runtime's headline number.
		{Name: "layered-36-continuous-reclaim-warm", Family: "layered", N: 36, Seed: 40, Model: contModel, Path: PathReclaim,
			Warmup: 1, Reps: 3},
		{Name: "layered-36-continuous-reclaim-cold", Family: "layered", N: 36, Seed: 40, Model: contModel, Path: PathReclaim,
			ReclaimCold: true, Warmup: 1, Reps: 3},
		// Disconnected workload: deviations dirty one component; the other
		// three replay verbatim under warm and re-solve under cold.
		{Name: "multi-4-continuous-reclaim-warm", Family: "multi", N: 4, Seed: 41, Model: contModel, Path: PathReclaim,
			Warmup: 1, Reps: 3},
		{Name: "multi-4-continuous-reclaim-cold", Family: "multi", N: 4, Seed: 41, Model: contModel, Path: PathReclaim,
			ReclaimCold: true, Warmup: 1, Reps: 3},
		// Discrete residuals route to branch-and-bound; warm opens with
		// the previous assignment as incumbent.
		{Name: "sp-12-discrete-reclaim-warm", Family: "sp", N: 12, Seed: 42, Model: discModel, Path: PathReclaim,
			Warmup: 1, Reps: 3},
		{Name: "sp-12-discrete-reclaim-cold", Family: "sp", N: 12, Seed: 42, Model: discModel, Path: PathReclaim,
			ReclaimCold: true, Warmup: 1, Reps: 3},
		// Vdd over a twelve-mode ladder, mild early-only jitter. Every
		// residual of a chain is a chain released at its head, so warm and
		// cold replans both take the chain closed form.
		{Name: "chain-24-vdd-reclaim-warm", Family: "chain", N: 24, Seed: 43, Model: vddLadder, Path: PathReclaim,
			Jitter: workload.Jitter{Seed: 43, Rate: 0.4, Early: 0.12}, Warmup: 1, Reps: 3},
		{Name: "chain-24-vdd-reclaim-cold", Family: "chain", N: 24, Seed: 43, Model: vddLadder, Path: PathReclaim,
			Jitter: workload.Jitter{Seed: 43, Rate: 0.4, Early: 0.12}, ReclaimCold: true, Warmup: 1, Reps: 3},
	}
}

// RegistryLarge returns the large-N tier: the 512–4096-task instances
// that pin the asymptotics of the sparse interior-point kernel (and of
// the linear-time closed forms, which must stay linear). The tier runs
// as its own gate (energybench -tier large, make bench-large) so the
// default registry stays a ~7-second CI step. Every scenario trims
// repetitions; the kernel numbers land in BENCH_baseline.json alongside
// the default tier's.
func RegistryLarge() []Scenario {
	large := func(s Scenario) Scenario {
		s.Tier = TierLarge
		s.Warmup = 1
		s.Reps = 3
		return s
	}
	return []Scenario{
		// Theorem 1 / SP algebra at scale: closed forms are linear-time
		// and these stay in milliseconds no matter how far N grows.
		large(Scenario{Name: "chain-4096-continuous-direct", Family: "chain", N: 4096, Seed: 50, Model: contModel, Path: PathDirect}),
		large(Scenario{Name: "sp-4096-continuous-direct", Family: "sp", N: 4096, Seed: 51, Model: contModel, Path: PathDirect}),
		// The sparse KKT kernel on a 2048-task chain, routed past the
		// closed form on purpose: tridiagonal-like Newton systems, zero
		// fill, and a known exact optimum to diff against. The dense
		// kernel this PR replaced could not finish this instance.
		large(Scenario{Name: "chain-2048-continuous-kernel", Family: "chain", N: 2048, Seed: 52, Model: contModel, Path: PathDirect, ForceNumeric: true}),
		// General DAGs through the interior point: the shapes with no
		// closed form, where the graph-structured factorization is the
		// only route to these sizes.
		large(Scenario{Name: "layered-1024-continuous-direct", Family: "layered", N: 1024, Seed: 53, Model: contModel, Path: PathDirect}),
		large(Scenario{Name: "layered-2048-continuous-direct", Family: "layered", N: 2048, Seed: 54, Model: contModel, Path: PathDirect}),
		// Denser than layered (forward edge probability 0.2 gives a
		// quadratic edge count — ~1700 precedence rows at n=128, each
		// coupling 3 variables): the fill-reducing ordering earns its
		// keep here, and the density is why this family stops at 128
		// while the bounded-degree families go to 2048+.
		large(Scenario{Name: "gnp-128-continuous-direct", Family: "gnp", N: 128, Seed: 55, Model: contModel, Path: PathDirect}),
		// Online reclaiming at scale: the warm/cold residual re-solve
		// pair on a 128-task layered schedule under the default jitter
		// (~64 deviations, each triggering a residual re-solve — a full
		// replay is inherently N solves, which bounds the size).
		large(Scenario{Name: "layered-128-continuous-reclaim-warm", Family: "layered", N: 128, Seed: 56, Model: contModel, Path: PathReclaim}),
		large(Scenario{Name: "layered-128-continuous-reclaim-cold", Family: "layered", N: 128, Seed: 56, Model: contModel, Path: PathReclaim, ReclaimCold: true}),
	}
}

// RegistryHuge returns the out-of-core tier: 32k–1M-task instances
// generated straight to disk and solved through the memory-mapped EGRF
// path (make bench-huge). These scenarios never materialize their
// graphs — build streams the instance file, each rep classifies and
// solves from the mapping, and the recorded peak_rss_bytes is the
// number the tier exists to bound. One conventional in-memory scenario
// (layered-8192) rides along as the largest instance the interior-point
// kernel is asked to hold in RAM, for the complexity table's top row.
func RegistryHuge() []Scenario {
	huge := func(s Scenario) Scenario {
		s.Tier = TierHuge
		s.Warmup = 1
		s.Reps = 2
		return s
	}
	return []Scenario{
		// Chains at 256k and 1M tasks: pure streaming — union-find
		// classification plus the Theorem 1 closed form, ~12 bytes of
		// state per task, no Graph ever built.
		huge(Scenario{Name: "chain-262144-continuous-mmap", Family: "chain", N: 262144, Seed: 60, Model: contModel, Path: PathDirect, Mmap: true}),
		huge(Scenario{Name: "chain-1048576-continuous-mmap", Family: "chain", N: 1048576, Seed: 61, Model: contModel, Path: PathDirect, Mmap: true}),
		// A multi-family union (~41k tasks, 98% of them in non-chain
		// components), so this measures the classify-then-materialize
		// path: the component executor's workers each lift one component
		// into the numeric solver when they take it, so the mapping is
		// the only whole-instance copy and at most GOMAXPROCS component
		// graphs are live.
		huge(Scenario{Name: "multi-2048-continuous-mmap", Family: "multi", N: 2048, Seed: 62, Model: contModel, Path: PathDirect, Mmap: true}),
		// The in-memory ceiling: one connected 8192-task layered DAG
		// through the sparse interior-point kernel.
		huge(Scenario{Name: "layered-8192-continuous-direct", Family: "layered", N: 8192, Seed: 63, Model: contModel, Path: PathDirect}),
	}
}

// FullRegistry returns every tier in run order: default, large, huge.
func FullRegistry() []Scenario {
	return append(append(Registry(), RegistryLarge()...), RegistryHuge()...)
}
