package energysched

import (
	"math/rand"
	"net/http"

	"repro/internal/core"
	"repro/internal/exps"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/reclaim"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/workload"
)

// Core types, re-exported. Solver entry points are methods on Problem; see
// the package documentation for the catalogue.
type (
	// Graph is a weighted task DAG (nodes = tasks, edges = precedences).
	Graph = graph.Graph
	// SPExpr is a series-parallel expression over task IDs.
	SPExpr = graph.SPExpr
	// Mapping fixes the processor and execution order of every task.
	Mapping = platform.Mapping
	// Model describes the admissible speeds (the four energy models).
	Model = model.Model
	// Problem is a MinEnergy(G, D) instance over an execution graph.
	Problem = core.Problem
	// Solution is a feasible, independently verifiable answer.
	Solution = core.Solution
	// Stats carries solver diagnostics (nodes, pivots, Newton iterations…).
	Stats = core.Stats
	// Schedule is a fully timed execution with per-task speed profiles.
	Schedule = sched.Schedule
	// Profile is a piecewise-constant speed profile (Vdd-Hopping).
	Profile = sched.Profile
	// Segment is one constant-speed stretch of a Profile.
	Segment = sched.Segment
	// SimResult is the outcome of the discrete-event machine simulation.
	SimResult = sched.SimResult
	// ContinuousOptions tunes the interior-point continuous solver.
	ContinuousOptions = core.ContinuousOptions
	// DiscreteOptions tunes the exact discrete solvers.
	DiscreteOptions = core.DiscreteOptions
	// WeightFunc draws random task weights for the generators.
	WeightFunc = graph.WeightFunc
	// Report summarizes an executed schedule (utilization, energy, switches).
	Report = sched.Report
	// Metrics summarizes a task graph's structure (depth, width, parallelism).
	Metrics = graph.Metrics
	// CurvePoint is one (deadline, energy) sample of the trade-off curve.
	CurvePoint = core.CurvePoint
	// AlphaSolution is a continuous solution under generalized power s^α.
	AlphaSolution = core.AlphaSolution
)

// Model kinds.
const (
	Continuous  = model.Continuous
	Discrete    = model.Discrete
	VddHopping  = model.VddHopping
	Incremental = model.Incremental
)

// Sentinel errors.
var (
	// ErrInfeasible: the deadline is below the fastest possible makespan.
	ErrInfeasible = core.ErrInfeasible
	// ErrSearchLimit: an exact solver ran out of budget (Theorem 4 at work).
	ErrSearchLimit = core.ErrSearchLimit
)

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return graph.New() }

// NewProblem wraps a validated execution graph and deadline.
func NewProblem(g *Graph, deadline float64) (*Problem, error) {
	return core.NewProblem(g, deadline)
}

// --- Energy models ---

// NewContinuous returns the Continuous model with speeds in (0, smax].
func NewContinuous(smax float64) (Model, error) { return model.NewContinuous(smax) }

// NewDiscrete returns the Discrete model over strictly increasing modes.
func NewDiscrete(modes []float64) (Model, error) { return model.NewDiscrete(modes) }

// NewVddHopping returns the Vdd-Hopping model over the given modes.
func NewVddHopping(modes []float64) (Model, error) { return model.NewVddHopping(modes) }

// NewIncremental returns the Incremental model with modes smin + i·δ.
func NewIncremental(smin, smax, delta float64) (Model, error) {
	return model.NewIncremental(smin, smax, delta)
}

// TaskEnergy returns w·s², the energy of executing cost w at speed s.
func TaskEnergy(w, s float64) float64 { return model.TaskEnergy(w, s) }

// --- Platform and mapping ---

// BuildExecutionGraph augments g with the serialization edges of mapping m.
func BuildExecutionGraph(g *Graph, m *Mapping) (*Graph, error) {
	return platform.BuildExecutionGraph(g, m)
}

// ListSchedule maps g onto p processors with greedy earliest-finish list
// scheduling (bottom-level priority) at unit speed.
func ListSchedule(g *Graph, p int) (*Mapping, error) { return platform.ListSchedule(g, p) }

// RoundRobin maps g onto p processors in topological round-robin order.
func RoundRobin(g *Graph, p int) (*Mapping, error) { return platform.RoundRobin(g, p) }

// SingleProcessor serializes g onto one processor in topological order.
func SingleProcessor(g *Graph) (*Mapping, error) { return platform.SingleProcessor(g) }

// RandomMapping spreads tasks uniformly at random over p processors.
func RandomMapping(g *Graph, p int, intn func(int) int) (*Mapping, error) {
	return platform.RandomMapping(g, p, intn)
}

// Simulate executes the mapped application on a simulated machine and
// returns per-task start/finish times (cross-checks the analytic schedule).
func Simulate(g *Graph, m *Mapping, durations []float64) (*SimResult, error) {
	return sched.Simulate(g, m, durations)
}

// FromSpeeds builds the earliest-start schedule for constant task speeds.
func FromSpeeds(g *Graph, speeds []float64) (*Schedule, error) {
	return sched.FromSpeeds(g, speeds)
}

// --- Workload generators ---

// UniformWeights draws task weights uniformly from [lo, hi).
func UniformWeights(lo, hi float64) WeightFunc { return graph.UniformWeights(lo, hi) }

// ConstantWeights always yields w.
func ConstantWeights(w float64) WeightFunc { return graph.ConstantWeights(w) }

// Chain builds a linear chain of n tasks.
func Chain(rng *rand.Rand, n int, wf WeightFunc) *Graph { return graph.Chain(rng, n, wf) }

// Fork builds the Theorem 1 shape: a source plus n independent leaves.
func Fork(rng *rand.Rand, n int, wf WeightFunc) *Graph { return graph.Fork(rng, n, wf) }

// Join builds the mirror of Fork.
func Join(rng *rand.Rand, n int, wf WeightFunc) *Graph { return graph.Join(rng, n, wf) }

// ForkJoin builds source → width branches of the given length → sink.
func ForkJoin(rng *rand.Rand, width, length int, wf WeightFunc) *Graph {
	return graph.ForkJoin(rng, width, length, wf)
}

// Layered builds a random layered DAG (layers × width, edge probability p).
func Layered(rng *rand.Rand, layers, width int, p float64, wf WeightFunc) *Graph {
	return graph.Layered(rng, layers, width, p, wf)
}

// GnpDAG builds an Erdős–Rényi DAG on n tasks with forward edge probability p.
func GnpDAG(rng *rand.Rand, n int, p float64, wf WeightFunc) *Graph {
	return graph.GnpDAG(rng, n, p, wf)
}

// RandomOutTree builds a random recursive out-tree on n tasks.
func RandomOutTree(rng *rand.Rand, n int, wf WeightFunc) *Graph {
	return graph.RandomOutTree(rng, n, wf)
}

// RandomInTree builds a random in-tree on n tasks.
func RandomInTree(rng *rand.Rand, n int, wf WeightFunc) *Graph {
	return graph.RandomInTree(rng, n, wf)
}

// RandomSP builds a random series-parallel task graph with its expression.
func RandomSP(rng *rand.Rand, n int, wf WeightFunc) (*Graph, *SPExpr) {
	return graph.RandomSP(rng, n, wf)
}

// LUElimination builds the blocked dense-factorization DAG on a b×b grid.
func LUElimination(b int, blockWeight float64) *Graph {
	return graph.LUElimination(b, blockWeight)
}

// Stencil builds a rows×cols 2-D wavefront dependence grid.
func Stencil(rows, cols int, weight float64) *Graph { return graph.Stencil(rows, cols, weight) }

// FFT builds the radix-2 butterfly DAG on 2^stages points.
func FFT(stages int, weight float64) *Graph { return graph.FFT(stages, weight) }

// Pipeline builds a stages×items software-pipeline DAG.
func Pipeline(stages, items int, weights []float64) *Graph {
	return graph.Pipeline(stages, items, weights)
}

// MapReduce builds an m-mapper, r-reducer two-stage DAG.
func MapReduce(maps, reduces int, mapWeight, reduceWeight float64) *Graph {
	return graph.MapReduce(maps, reduces, mapWeight, reduceWeight)
}

// --- Series-parallel structure ---

// SPLeaf, SPSeries and SPParallel build SP expressions by hand.
func SPLeaf(task int) *SPExpr                { return graph.SPLeaf(task) }
func SPSeries(children ...*SPExpr) *SPExpr   { return graph.SPSeriesOf(children...) }
func SPParallel(children ...*SPExpr) *SPExpr { return graph.SPParallelOf(children...) }
func DecomposeSP(g *Graph) (*SPExpr, bool)   { return graph.DecomposeSP(g) }
func TreeToSP(g *Graph) (*SPExpr, bool)      { return graph.TreeToSP(g) }
func MaterializeSP(e *SPExpr, weights []float64) (*Graph, error) {
	return graph.MaterializeSP(e, weights)
}

// --- Energy–deadline trade-off curves ---

// EnergyDeadlineCurve samples the continuous-optimal energy at
// D = factor × Dmin(smax) for each factor.
func EnergyDeadlineCurve(g *Graph, smax float64, factors []float64, opts ContinuousOptions) ([]CurvePoint, error) {
	return core.EnergyDeadlineCurve(g, smax, factors, opts)
}

// MarginalEnergyRate estimates dE/dD — the energy price of one more second.
func MarginalEnergyRate(g *Graph, smax, deadline, h float64, opts ContinuousOptions) (float64, error) {
	return core.MarginalEnergyRate(g, smax, deadline, h, opts)
}

// --- Approximation bounds (Theorem 5 / Proposition 1) ---

// Theorem5Bound returns (1+δ/smin)²(1+1/K)² for an Incremental model.
func Theorem5Bound(m Model, K int) float64 { return core.Theorem5Bound(m, K) }

// Proposition1ContinuousBound returns (1+δ/smin)².
func Proposition1ContinuousBound(m Model) float64 { return core.Proposition1ContinuousBound(m) }

// Proposition1DiscreteBound returns (1+α/s₁)²(1+1/K)².
func Proposition1DiscreteBound(m Model, K int) float64 {
	return core.Proposition1DiscreteBound(m, K)
}

// --- Structure-aware solve planner (see internal/plan) ---

// Plan is an explainable solve plan: per weakly-connected component of the
// execution graph, the recognized structure class, the routed solver, the
// rationale, the a-priori bound factor, and a relative cost estimate.
type Plan = plan.Plan

// PlanOptions parameterizes plan analysis and execution (forced algorithm,
// Theorem 5 K, component-solve concurrency, overload degradation, the
// shared structure cache).
type PlanOptions = plan.Options

// PlanComponent is one component's routing decision inside a Plan.
type PlanComponent = plan.ComponentPlan

// PlanClass is the structure classification (chain, fork, join, tree,
// series-parallel, general DAG).
type PlanClass = plan.Class

// SolvePlannedOptions tunes Problem.SolvePlanned / Problem.SolveAuto
// (Theorem 5 K, solver tunables); SolvePlanned solves components on up to
// GOMAXPROCS goroutines.
type SolvePlannedOptions = core.PlannedOptions

// ProblemComponent couples one weakly-connected component with its
// subproblem (see Problem.SplitComponents / Problem.MergeSolutions).
type ProblemComponent = core.Component

// Explain analyzes a problem without solving it: split into components,
// classify each, and route it per the paper's complexity landscape. Execute
// the returned plan to solve (independent components run concurrently), or
// render it with its String method.
func Explain(p *Problem, m Model, opts PlanOptions) (*Plan, error) {
	return plan.Analyze(p, m, opts)
}

// --- Solve service (the concurrent serving layer; see cmd/energyserver) ---

// Engine is a concurrent MinEnergy solve service: a bounded worker pool in
// front of the solvers plus an LRU cache keyed by a canonical hash of the
// execution graph, deadline, and model — repeated instances skip solving.
type Engine = service.Engine

// EngineOptions configures workers, cache capacity, and verification.
type EngineOptions = service.Options

// EngineStats is a snapshot of the engine's hit/miss/solve counters.
type EngineStats = service.Stats

// SolveRequest is one MinEnergy instance: graph, optional mapping, deadline,
// model spec, and algorithm selection. It is also the HTTP wire format.
type SolveRequest = service.SolveRequest

// SolveResponse is a solved instance in wire form (energy, speeds/profiles,
// algorithm, cache provenance).
type SolveResponse = service.SolveResponse

// SolveModelSpec parameterizes the energy model of a SolveRequest.
type SolveModelSpec = service.ModelSpec

// BatchResult pairs one batch entry's response with its error.
type BatchResult = service.BatchResult

// StreamEvent is the shared event envelope of both SSE streaming
// surfaces — the solve stream and the session watch: a per-stream
// sequence number, an event type, and the type-specific payload.
type StreamEvent = service.StreamEvent

// StreamEmitter numbers and serializes the events of one solve stream;
// pass one to Engine.SolveStream with any transport send function.
type StreamEmitter = service.StreamEmitter

// Stream event types. A solve stream emits plan* → component* → exactly
// one terminal result|error; a session watch emits schedule, then
// component/event as the session replans, then one terminal done|closed.
const (
	StreamEventPlan      = service.EventPlan
	StreamEventComponent = service.EventComponent
	StreamEventResult    = service.EventResult
	StreamEventError     = service.EventError
	StreamEventSchedule  = service.EventSchedule
	StreamEventApplied   = service.EventApplied
	StreamEventDone      = service.EventDone
	StreamEventClosed    = service.EventClosed
)

// APIErrorCode is one of the service's closed set of error codes; every
// HTTP error body and terminal stream error carries one, and
// APIErrorCodes enumerates them (each knows its HTTP status).
type APIErrorCode = service.Code

// APIErrorCodes returns the documented code set.
func APIErrorCodes() []APIErrorCode { return service.Codes() }

// NewStreamEmitter wraps a transport send function for Engine.SolveStream.
func NewStreamEmitter(send func(StreamEvent) error) *StreamEmitter {
	return service.NewStreamEmitter(send)
}

// SolveHTTPOptions tunes the JSON transport (timeouts, body and batch
// limits) around an Engine served over HTTP.
type SolveHTTPOptions = service.HTTPOptions

// NewEngine builds a solve engine; the zero Options picks GOMAXPROCS
// workers and a 1024-instance cache.
func NewEngine(opts EngineOptions) *Engine { return service.NewEngine(opts) }

// NewSolveHandler mounts an Engine behind the JSON HTTP surface:
// POST /v1/solve, POST /v1/solve/stream (SSE), POST /v1/solve/batch,
// POST /v1/plan, the /v1/sessions subsystem (including the
// GET /v1/sessions/{id}/watch SSE stream), GET /v1/stats, GET /healthz.
func NewSolveHandler(e *Engine, opts SolveHTTPOptions) http.Handler {
	return service.NewHandler(e, opts)
}

// --- Online reclaiming runtime (see internal/reclaim) ---

// ReclaimSession re-optimizes an executing schedule as task-completion
// events arrive: completed tasks freeze at their actual finish times, the
// dirtied residual components re-solve warm-started from the previous
// solution, and untouched components replay verbatim.
type ReclaimSession = reclaim.Session

// ReclaimOptions tunes a session (forced algorithm, Theorem 5 K, the Cold
// baseline switch, the shared structure cache).
type ReclaimOptions = reclaim.Options

// ReclaimStats counts events, clean skips, replans, and component
// resolve/reuse splits.
type ReclaimStats = reclaim.Stats

// CompletionEvent reports one task's actual execution duration.
type CompletionEvent = reclaim.CompletionEvent

// EventResult reports what one accepted completion did to the session.
type EventResult = reclaim.EventResult

// WarmStart seeds a solver with a previous solution; it never changes the
// result, only the work (see core.WarmStart).
type WarmStart = core.WarmStart

// ResidualPlan describes a residual re-solve's inputs: release times plus
// the previous solution to warm-start from (see plan.Residual).
type ResidualPlan = plan.Residual

// Jitter is the deterministic duration-perturbation behind reproducible
// replay scenarios (seeded early/late completion factors).
type Jitter = workload.Jitter

// NewReclaimSession opens a reclaiming session over a solved problem.
func NewReclaimSession(p *Problem, m Model, sol *Solution, opts ReclaimOptions) (*ReclaimSession, error) {
	return reclaim.NewSession(p, m, sol, opts)
}

// ReclaimTrace builds the open-loop completion-event stream replaying a
// planned schedule with per-task duration factors (nil = on-plan).
func ReclaimTrace(g *Graph, planned *Schedule, factors []float64) ([]CompletionEvent, error) {
	return reclaim.Trace(g, planned, factors)
}

// ExplainResidual analyzes a residual instance — release times from the
// frozen prefix of an executing schedule — and routes every component to a
// release-aware solver, attaching warm seeds from the previous solution.
func ExplainResidual(p *Problem, m Model, opts PlanOptions, res ResidualPlan) (*Plan, error) {
	return plan.AnalyzeResidual(p, m, opts, res)
}

// --- Experiment harness (used by cmd/experiments and the benches) ---

// ExperimentConfig scales the experiment suite.
type ExperimentConfig = exps.Config

// ExperimentTable is a rendered result table.
type ExperimentTable = exps.Table

// Experiments returns the full suite (T1–T5, F1–F5) in report order.
func Experiments() []exps.Experiment { return exps.All() }
