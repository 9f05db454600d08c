package service

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/sched"
)

// ErrBadRequest tags every validation failure of an incoming request, so
// transport layers can distinguish caller mistakes (HTTP 400) from solver
// failures (HTTP 5xx) with errors.Is.
var ErrBadRequest = errors.New("service: bad request")

func badRequest(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// ModelSpec is the wire form of an energy model. Kind selects the
// constructor; the other fields are that constructor's parameters.
type ModelSpec struct {
	// Kind: "continuous", "discrete", "vdd-hopping", or "incremental".
	Kind string `json:"kind"`
	// SMax bounds continuous speeds; upper end of the incremental range.
	SMax float64 `json:"smax,omitempty"`
	// SMin is the lower end of the incremental range.
	SMin float64 `json:"smin,omitempty"`
	// Delta is the incremental speed increment.
	Delta float64 `json:"delta,omitempty"`
	// Modes lists admissible speeds for discrete and vdd-hopping.
	Modes []float64 `json:"modes,omitempty"`
}

// MaxModes bounds the mode count a request may ask for: enough for any
// realistic DVFS ladder, small enough that an adversarial spec (a tiny
// incremental delta spanning a huge range, or a megabyte mode list) is
// rejected before the model constructor materializes it.
const MaxModes = 1024

// Build constructs the model, funneling constructor errors into ErrBadRequest.
func (s ModelSpec) Build() (model.Model, error) {
	var m model.Model
	var err error
	switch strings.ToLower(s.Kind) {
	case "continuous":
		m, err = model.NewContinuous(s.SMax)
	case "discrete", "vdd-hopping", "vddhopping", "vdd":
		if len(s.Modes) > MaxModes {
			return model.Model{}, badRequest("%d modes exceed the limit of %d", len(s.Modes), MaxModes)
		}
		if strings.EqualFold(s.Kind, "discrete") {
			m, err = model.NewDiscrete(s.Modes)
		} else {
			m, err = model.NewVddHopping(s.Modes)
		}
	case "incremental":
		// Pre-check the grid size: NewIncremental materializes one mode per
		// (smax-smin)/delta step, on untrusted numbers. The comparison is
		// phrased fail-closed — !(ratio ≤ MaxModes) — so a NaN or +Inf ratio
		// (e.g. smax = +Inf from a programmatic caller) is rejected here
		// rather than waved through to the constructor.
		if s.Delta > 0 && s.SMax >= s.SMin && !((s.SMax-s.SMin)/s.Delta <= MaxModes) {
			return model.Model{}, badRequest("incremental grid of ~%.3g modes exceeds the limit of %d",
				(s.SMax-s.SMin)/s.Delta, MaxModes)
		}
		m, err = model.NewIncremental(s.SMin, s.SMax, s.Delta)
	case "":
		return model.Model{}, badRequest("model.kind is required")
	default:
		return model.Model{}, badRequest("unknown model kind %q", s.Kind)
	}
	if err != nil {
		return model.Model{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return m, nil
}

// Algorithm names accepted in SolveRequest.Algorithm. Empty means "auto".
// The definitions live in internal/core, whose routing table
// (core.SelectRoute) interprets them.
const (
	AlgoAuto    = plan.AlgoAuto    // cheapest exact method for the model
	AlgoBB      = plan.AlgoBB      // discrete branch-and-bound (exact)
	AlgoSP      = plan.AlgoSP      // discrete Pareto DP on series-parallel shapes (exact)
	AlgoGreedy  = plan.AlgoGreedy  // discrete greedy heuristic
	AlgoRoundUp = plan.AlgoRoundUp // continuous solve + per-task round-up heuristic
	AlgoApprox  = plan.AlgoApprox  // Theorem 5 (1+δ/smin)²(1+1/K)² approximation
)

// SolveRequest is one MinEnergy(G, D) instance. It doubles as the JSON wire
// format of the HTTP service and the programmatic input to Engine.Solve:
// Graph and Mapping use the canonical JSON codecs of their packages.
type SolveRequest struct {
	// ID is an optional caller tag, echoed in the response (batch bookkeeping).
	ID string `json:"id,omitempty"`
	// Graph is the application task DAG.
	Graph *graph.Graph `json:"graph"`
	// Mapping optionally fixes processor assignment and per-processor order;
	// its serialization edges are added to Graph before solving.
	Mapping *platform.Mapping `json:"mapping,omitempty"`
	// Processors, when positive and Mapping is nil, list-schedules the graph
	// onto that many processors first (greedy earliest-finish).
	Processors int `json:"processors,omitempty"`
	// Deadline is the bound D on every task's completion time.
	Deadline float64 `json:"deadline"`
	// Model selects and parameterizes the energy model.
	Model ModelSpec `json:"model"`
	// Algorithm optionally forces a solving procedure (see Algo constants).
	Algorithm string `json:"algorithm,omitempty"`
	// K is the Theorem 5 accuracy parameter for AlgoApprox (default 4).
	K int `json:"k,omitempty"`
	// TimeoutMS bounds this request's wall time (HTTP layer; 0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (still populates it).
	NoCache bool `json:"no_cache,omitempty"`
	// Tenant identifies the caller to the fair-share admission gate. The
	// X-Tenant header takes precedence; empty means DefaultTenant. Not part
	// of the cache key: tenancy decides admission, not answers.
	Tenant string `json:"tenant,omitempty"`
}

// instance is a compiled, validated request ready to hand to the solvers.
type instance struct {
	prob *core.Problem
	mdl  model.Model
	algo string
	k    int
}

// compile validates the request and builds the execution graph, the model,
// and the problem. All failures carry ErrBadRequest.
func (r *SolveRequest) compile() (*instance, error) {
	if r == nil {
		return nil, badRequest("nil request")
	}
	if r.Graph == nil || r.Graph.N() == 0 {
		return nil, badRequest("graph with at least one task is required")
	}
	mdl, err := r.Model.Build()
	if err != nil {
		return nil, err
	}
	algo := strings.ToLower(r.Algorithm)
	if algo == "" {
		algo = AlgoAuto
	}
	if err := core.CheckSelector(mdl.Kind, algo); err != nil {
		return nil, badRequest("%v", err)
	}
	// K only matters on the Theorem 5 approximation paths; normalize it to
	// zero everywhere else so it can't fragment the cache for solvers that
	// ignore it.
	k := 0
	if algo == AlgoApprox || (algo == AlgoAuto && mdl.Kind == model.Incremental) {
		k = r.K
		if k <= 0 {
			k = 4
		}
	}

	exec := r.Graph
	mapping := r.Mapping
	if mapping == nil && r.Processors > 0 {
		// More processors than tasks is never useful (the extras idle), and
		// ListSchedule allocates per-processor state — clamp so an
		// adversarial count can't turn into a multi-gigabyte allocation.
		p := r.Processors
		if n := r.Graph.N(); p > n {
			p = n
		}
		mapping, err = platform.ListSchedule(r.Graph, p)
		if err != nil {
			return nil, fmt.Errorf("%w: list schedule: %v", ErrBadRequest, err)
		}
	}
	if mapping != nil {
		exec, err = platform.BuildExecutionGraph(r.Graph, mapping)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	prob, err := core.NewProblem(exec, r.Deadline)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &instance{prob: prob, mdl: mdl, algo: algo, k: k}, nil
}

// SegmentJSON is one constant-speed stretch of a task's speed profile.
type SegmentJSON struct {
	Speed    float64 `json:"speed"`
	Duration float64 `json:"duration"`
}

// SolveResponse is the wire form of a solved instance. Cache hits are
// served as deep copies (Clone), so callers own every slice in the
// response they receive.
type SolveResponse struct {
	// ID echoes the request's ID.
	ID string `json:"id,omitempty"`
	// Energy is the objective value Σ wᵢ·sᵢ².
	Energy float64 `json:"energy"`
	// Makespan is the completion time of the last task.
	Makespan float64 `json:"makespan"`
	// Speeds holds per-task constant speeds when every profile is constant
	// (all models except Vdd-Hopping).
	Speeds []float64 `json:"speeds,omitempty"`
	// Profiles holds per-task piecewise-constant profiles when some task
	// hops between modes (Vdd-Hopping).
	Profiles [][]SegmentJSON `json:"profiles,omitempty"`
	// Algorithm names the procedure that produced the solution.
	Algorithm string `json:"algorithm"`
	// Exact is true when the result is provably optimal for its model.
	Exact bool `json:"exact"`
	// BoundFactor is the a-priori guarantee of approximate algorithms (1 for exact).
	BoundFactor float64 `json:"bound_factor,omitempty"`
	// CacheHit is true when the result came from the instance cache.
	CacheHit bool `json:"cache_hit"`
	// Degraded is true when overload rerouted some component to the bounded
	// uniform heuristic: the schedule is feasible and BoundFactor bounds its
	// distance from optimal, but it is not the answer a calm server would
	// give. Degraded responses are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// ElapsedMS is the server-side wall time of this request in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Plan is the structure-aware routing that produced the solution: one
	// entry per weakly-connected component of the execution graph. Absent on
	// responses predating the planner (old cached artifacts).
	Plan *PlanJSON `json:"plan,omitempty"`
}

// Clone deep-copies the response, including every mutable slice (Speeds,
// Profiles, the plan's components and their TaskIDs). Cache hits serve
// clones so a caller mutating its response cannot poison the cached
// original that every later hit on the same key shares.
func (r *SolveResponse) Clone() *SolveResponse {
	out := *r
	if r.Speeds != nil {
		out.Speeds = append([]float64(nil), r.Speeds...)
	}
	if r.Profiles != nil {
		out.Profiles = make([][]SegmentJSON, len(r.Profiles))
		for i, p := range r.Profiles {
			if p != nil {
				out.Profiles[i] = append([]SegmentJSON(nil), p...)
			}
		}
	}
	if r.Plan != nil {
		pl := *r.Plan
		if r.Plan.Components != nil {
			pl.Components = append([]ComponentPlanJSON(nil), r.Plan.Components...)
			for i := range pl.Components {
				if ids := pl.Components[i].TaskIDs; ids != nil {
					pl.Components[i].TaskIDs = append([]int(nil), ids...)
				}
			}
		}
		out.Plan = &pl
	}
	return &out
}

// ComponentPlanJSON is the wire form of one component's routing decision.
type ComponentPlanJSON struct {
	// Tasks is the component size.
	Tasks int `json:"tasks"`
	// TaskIDs lists the component's task IDs (omitted beyond 64 tasks to
	// keep responses bounded; FirstTask/LastTask always identify the range).
	TaskIDs []int `json:"task_ids,omitempty"`
	// FirstTask and LastTask bracket the component's ID range.
	FirstTask int `json:"first_task"`
	LastTask  int `json:"last_task"`
	// Class is the recognized structure (chain, fork, join, tree,
	// series-parallel, general-dag).
	Class string `json:"class"`
	// Solver names the routed procedure.
	Solver string `json:"solver"`
	// Rationale explains the choice.
	Rationale string `json:"rationale"`
	// BoundFactor is the a-priori guarantee (1 exact, 0 encodes "none":
	// JSON has no +Inf).
	BoundFactor float64 `json:"bound_factor,omitempty"`
	// EstCost is the planner's relative cost estimate.
	EstCost float64 `json:"est_cost,omitempty"`
	// Degraded marks a component rerouted to the uniform heuristic under
	// overload; BoundFactor then carries the a-priori guarantee.
	Degraded bool `json:"degraded,omitempty"`
}

// PlanJSON is the wire form of a solve plan (the `plan` response field and
// the POST /v1/plan payload).
type PlanJSON struct {
	// Algorithm echoes the requested selector.
	Algorithm string `json:"algorithm"`
	// Exact is true when every routed solver is provably optimal a-priori.
	Exact bool `json:"exact"`
	// Parallel is true when the components solve concurrently (more than one).
	Parallel bool `json:"parallel"`
	// Degraded is true when any component was rerouted to the overload
	// heuristic.
	Degraded bool `json:"degraded,omitempty"`
	// Components holds one routing decision per weakly-connected component.
	Components []ComponentPlanJSON `json:"components"`
}

// planJSON flattens a plan into wire form.
func planJSON(pl *plan.Plan) *PlanJSON {
	out := &PlanJSON{
		Algorithm:  pl.Algorithm,
		Exact:      pl.Exact(),
		Parallel:   len(pl.Components) > 1,
		Degraded:   pl.Degraded(),
		Components: make([]ComponentPlanJSON, len(pl.Components)),
	}
	for i, cp := range pl.Components {
		out.Components[i] = componentPlanJSON(cp)
	}
	return out
}

// responseFromSolution flattens a verified core.Solution into wire form,
// attaching the plan that produced it.
func responseFromSolution(sol *core.Solution, pl *plan.Plan) *SolveResponse {
	resp := &SolveResponse{
		Energy:      sol.Energy,
		Makespan:    sol.Schedule.Makespan,
		Algorithm:   sol.Stats.Algorithm,
		Exact:       sol.Stats.Exact,
		BoundFactor: sol.Stats.BoundFactor,
		Degraded:    pl.Degraded(),
		Plan:        planJSON(pl),
	}
	resp.Speeds, resp.Profiles = speedsJSON(sol)
	return resp
}

// speedsJSON flattens a solution's schedule for the wire: per-task constant
// speeds when every profile is constant, full profiles otherwise.
func speedsJSON(sol *core.Solution) ([]float64, [][]SegmentJSON) {
	if speeds, err := sol.Speeds(); err == nil {
		return speeds, nil
	}
	return nil, profilesJSON(sol.Schedule.Profiles)
}

func profilesJSON(profiles []sched.Profile) [][]SegmentJSON {
	out := make([][]SegmentJSON, len(profiles))
	for i, p := range profiles {
		out[i] = segmentsJSON(p)
	}
	return out
}
