package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// The streaming solve path. A monolithic solve answers once: nothing leaves
// the server until every weakly-connected component has been routed,
// solved, and merged. A stream runs the same component executor
// (plan.Solve: split → route → solve → merge) with observers attached, so
// the first `plan` event leaves as soon as the route stage has routed the
// first component and each `component` event leaves the moment that
// component's solver finishes, while later components are still solving.
// POST /v1/solve/stream exposes it as SSE; GET /v1/sessions/{id}/watch
// pushes the same envelope, over the same SSE writer, for executing
// reclaim sessions.

// StreamEvent is the shared event envelope of both SSE streaming surfaces
// (solve streams and session watches): a per-stream sequence number, an
// event type, and the type-specific payload.
type StreamEvent struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Stream event types. A solve stream emits plan* → component* → exactly one
// terminal result|error; a session watch emits schedule, then component /
// event as the session replans, then exactly one terminal done|closed.
const (
	// EventPlan carries one component's routing decision (StreamPlanData),
	// emitted as classification finds it.
	EventPlan = "plan"
	// EventComponent carries one solved component (StreamComponentData on a
	// solve stream, WatchComponentData on a watch) the moment its solver
	// finishes.
	EventComponent = "component"
	// EventResult terminates a successful solve stream with the full
	// SolveResponse.
	EventResult = "result"
	// EventError terminates a failed solve stream with an APIError.
	EventError = "error"
	// EventSchedule opens a session watch with the full
	// SessionScheduleResponse snapshot.
	EventSchedule = "schedule"
	// EventApplied carries one applied completion event
	// (reclaim.EventResult) on a session watch.
	EventApplied = "event"
	// EventDone terminates a watch when the session completes its last task.
	EventDone = "done"
	// EventClosed terminates a watch when the session is deleted or evicted.
	EventClosed = "closed"
)

// StreamPlanData is the payload of a `plan` event: one component's routing
// decision, plus enough counters to track progress.
type StreamPlanData struct {
	// Component indexes the component (SplitComponents order).
	Component int `json:"component"`
	// Total is the component count of the instance.
	Total int `json:"total"`
	// Plan is the component's routing decision.
	Plan ComponentPlanJSON `json:"plan"`
}

// StreamComponentData is the payload of a solve stream's `component`
// event: one merged sub-schedule with the running energy total.
type StreamComponentData struct {
	// Component indexes the component (matches the `plan` event).
	Component int `json:"component"`
	// TaskIDs lists the component's task IDs (capped like
	// ComponentPlanJSON.TaskIDs).
	TaskIDs []int `json:"task_ids,omitempty"`
	// FirstTask and LastTask bracket the component's ID range.
	FirstTask int `json:"first_task"`
	LastTask  int `json:"last_task"`
	// Energy is this component's energy; RunningEnergy sums every
	// component solved so far (monotone toward the final result's energy).
	Energy        float64 `json:"energy"`
	RunningEnergy float64 `json:"running_energy"`
	// Solved / Total track progress.
	Solved int `json:"solved"`
	Total  int `json:"total"`
	// Speeds holds the component's per-task constant speeds (task order =
	// TaskIDs order) when every profile is constant; Profiles otherwise.
	Speeds   []float64       `json:"speeds,omitempty"`
	Profiles [][]SegmentJSON `json:"profiles,omitempty"`
	// Algorithm names the solver that produced this component's solution.
	Algorithm string `json:"algorithm"`
}

// StreamEmitter assigns sequence numbers and serializes event emission for
// one stream. The send function is the transport (an SSE writer, a test
// collector); a send failure is sticky — every later emit returns it, so a
// disconnected client cancels the pipeline on its next event.
type StreamEmitter struct {
	mu   sync.Mutex
	seq  uint64
	send func(StreamEvent) error
	err  error
}

// NewStreamEmitter wraps a transport send function.
func NewStreamEmitter(send func(StreamEvent) error) *StreamEmitter {
	return &StreamEmitter{send: send}
}

// Emit marshals data and sends it as the next event. Safe for concurrent
// use; events are numbered in send order starting at 1.
func (em *StreamEmitter) Emit(typ string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return err
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.err != nil {
		return em.err
	}
	em.seq++
	if err := em.send(StreamEvent{Seq: em.seq, Type: typ, Data: raw}); err != nil {
		em.err = fmt.Errorf("service: stream send: %w", err)
		return em.err
	}
	return nil
}

// Events returns the number of events emitted so far.
func (em *StreamEmitter) Events() uint64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.seq
}

// SolveStream answers one request as an event stream: `plan` per component
// as the route stage routes it, `component` per solved component with the
// running energy total, and the final merged SolveResponse as the return
// value (the transport emits the terminal result/error event so the
// sequence numbers stay continuous). Unlike Solve, the work is attached to
// ctx — a disconnecting client cancels the remaining components — and
// identical concurrent streams do not coalesce (each stream wants its own
// events). Cache hits replay the cached plan as `plan` events and skip
// `component` events (per-component solutions are not cached). Fresh
// results populate the cache exactly like Solve.
func (e *Engine) SolveStream(ctx context.Context, req *SolveRequest, em *StreamEmitter) (*SolveResponse, error) {
	start := time.Now()
	if req != nil && req.Graph != nil && req.Graph.N() == 0 {
		// A zero-component instance streams an empty plan and a trivial
		// result; the monolithic path rejects it (a batch solve of nothing
		// is a caller mistake, a stream of nothing is a valid empty stream).
		return &SolveResponse{
			Energy:    0,
			Makespan:  0,
			Algorithm: "empty",
			Exact:     true,
			ElapsedMS: msSince(start),
			Plan:      &PlanJSON{Algorithm: plan.AlgoAuto, Exact: true, Components: []ComponentPlanJSON{}},
		}, nil
	}
	inst, err := req.compile()
	if err != nil {
		return nil, err
	}

	key := cacheKey(inst)
	if !req.NoCache {
		if cached, ok := e.cache.Get(key); ok {
			e.hits.Add(1)
			total := len(cached.Plan.Components)
			for i, cj := range cached.Plan.Components {
				if err := em.Emit(EventPlan, StreamPlanData{Component: i, Total: total, Plan: cj}); err != nil {
					return nil, err
				}
			}
			return reply(cached, req, true, start), nil
		}
	}
	if err := e.checkBudget(ctx); err != nil {
		return nil, err
	}

	e.misses.Add(1)
	release, err := e.admitFor(e.tenant(ctx, req.Tenant))
	if err != nil {
		return nil, err
	}
	defer release()
	degraded := e.degradedNow()
	// One pool slot bounds the whole stream, like a monolithic solve; the
	// per-plan worker count governs intra-stream concurrency.
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()

	running, solved := 0.0, 0
	pl, sol, err := plan.Solve(ctx, inst.prob, inst.mdl, e.planOptions(inst, degraded), plan.Observer{
		Plan: func(pl *plan.Plan, i int) error {
			return em.Emit(EventPlan, StreamPlanData{Component: i, Total: len(pl.Components), Plan: componentPlanJSON(pl.Components[i])})
		},
		Component: func(pl *plan.Plan, i int, sol *core.Solution) error {
			running += sol.Energy
			solved++
			tasks := pl.Components[i].Tasks
			data := StreamComponentData{
				Component:     i,
				FirstTask:     tasks[0],
				LastTask:      tasks[len(tasks)-1],
				Energy:        sol.Energy,
				RunningEnergy: running,
				Solved:        solved,
				Total:         len(pl.Components),
				Algorithm:     sol.Stats.Algorithm,
			}
			if len(tasks) <= 64 {
				data.TaskIDs = tasks
			}
			data.Speeds, data.Profiles = speedsJSON(sol)
			return em.Emit(EventComponent, data)
		},
	})
	resp, err := e.finish(inst, key, pl, sol, err)
	if err != nil {
		return nil, err
	}
	return reply(resp, req, false, start), nil
}

// planError converts the planner's routing rejections into caller errors
// (HTTP 400).
func planError(err error) error {
	if errors.Is(err, plan.ErrBadPlan) {
		return badRequest("%v", err)
	}
	return err
}

// componentPlanJSON is planJSON's per-component flattening, shared with the
// streaming path.
func componentPlanJSON(cp plan.ComponentPlan) ComponentPlanJSON {
	cj := ComponentPlanJSON{
		Tasks:       len(cp.Tasks),
		FirstTask:   cp.Tasks[0],
		LastTask:    cp.Tasks[len(cp.Tasks)-1],
		Class:       cp.Class.String(),
		Solver:      cp.Solver,
		Rationale:   cp.Rationale,
		BoundFactor: cp.BoundFactor,
		EstCost:     cp.Cost,
		Degraded:    cp.Degraded,
	}
	if math.IsInf(cj.BoundFactor, 1) {
		cj.BoundFactor = 0 // heuristics: no finite guarantee
	}
	if len(cp.Tasks) <= 64 {
		cj.TaskIDs = cp.Tasks
	}
	return cj
}

// sseWriter renders StreamEvents as Server-Sent Events. Headers are
// written lazily on the first event, so a stream that fails before
// emitting anything can still answer with a plain JSON error status.
type sseWriter struct {
	w       http.ResponseWriter
	started bool
}

// Started reports whether the SSE headers (and therefore the 200 status)
// have been committed.
func (s *sseWriter) Started() bool { return s.started }

func (s *sseWriter) send(ev StreamEvent) error {
	if !s.started {
		h := s.w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-store")
		h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
		s.w.WriteHeader(http.StatusOK)
		s.started = true
	}
	body, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", ev.Type, body); err != nil {
		return err
	}
	return http.NewResponseController(s.w).Flush()
}
