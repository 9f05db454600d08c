// Package reclaim is the online reclaiming runtime: a Session wraps a
// solved MinEnergy(G, D) instance and re-optimizes the schedule as it
// executes, reacting to task-completion events whose actual durations
// deviate from the plan. This is the full-length paper's framing (Aupy,
// Benoit, Dufossé, Robert, arXiv:1204.0939) of reclaiming as re-scaling an
// executing schedule: the mapping is fixed, completed tasks freeze at
// their actual finish times, and the remaining tasks form a *residual*
// instance — the induced subgraph of the execution graph with per-task
// release times (the latest frozen-predecessor finish) under the original
// deadline.
//
// The runtime is incremental on two axes:
//
//   - Structure: energy is additive across weakly-connected components of
//     the residual graph, so a deviation re-solves only the components it
//     dirtied (the fragments containing the completed task's incomplete
//     successors); every other component replays its current speeds
//     verbatim (plan.Replan).
//   - Numerics: dirty components re-solve warm-started from the previous
//     solution (core.WarmStart) — the interior point starts centering next
//     to the optimum, branch-and-bound opens with the previous assignment
//     as incumbent, the Pareto DP prunes against the previous energy, and
//     the Vdd LP restricts each task to the modes bracketing its previous
//     profile. Warm starts never change a solver's answer, only its cost.
//
// Zero-deviation events (actual ≡ planned within deviationTol) are a
// no-op by construction: freezing variables of an optimal solution at
// their optimal values leaves the remaining variables' optimum unchanged,
// so the session skips the solver entirely and the replayed schedule
// reproduces the original solution exactly.
package reclaim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// Options tunes a Session.
type Options struct {
	// Algorithm forces a plan selector for residual re-solves (see
	// plan.Algo constants); empty means auto.
	Algorithm string
	// K is the Theorem 5 accuracy parameter (default 4).
	K int
	// Cold disables incremental reuse and warm starts: every dirty event
	// re-solves the full residual from scratch. Benchmarks use it as the
	// baseline the warm path is measured against.
	Cold bool
	// Structures, when non-nil, amortizes structural work across the
	// session's replans through the shared structure cache: residual
	// classification and compiled continuous kernels hit per structural
	// fingerprint.
	Structures *plan.StructureCache
}

// deviationTol is the relative duration tolerance under which a completion
// counts as on-plan and triggers no re-solve.
const deviationTol = 1e-9

// Stats counts what the session did.
type Stats struct {
	// Events is the number of accepted completion events.
	Events int `json:"events"`
	// Clean counts accepted events that required no re-solve (on-plan
	// completions, and deviations with no incomplete successors).
	Clean int `json:"clean"`
	// Replans counts events that triggered a residual re-solve.
	Replans int `json:"replans"`
	// ComponentsResolved / ComponentsReused split the residual components
	// across all replans into solver runs and verbatim replays.
	ComponentsResolved int `json:"components_resolved"`
	ComponentsReused   int `json:"components_reused"`
	// WarmSeeded counts resolved components that carried a warm seed.
	WarmSeeded int `json:"warm_seeded"`
}

// Errors returned by ApplyEvent.
var (
	// ErrBadEvent tags every rejected event (unknown task, duplicate,
	// out-of-order, non-positive duration). The session state is
	// untouched by a rejected event.
	ErrBadEvent = errors.New("reclaim: invalid completion event")
	// ErrSessionDone is returned once every task has completed.
	ErrSessionDone = errors.New("reclaim: session complete — no tasks remain")
	// ErrInfeasible re-exports the solver sentinel: a late completion can
	// push the residual past the deadline. The completion itself is still
	// recorded; remaining tasks keep their previous (now deadline-
	// violating) speeds and later events retry the re-solve.
	ErrInfeasible = core.ErrInfeasible
)

func badEvent(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadEvent, fmt.Sprintf(format, args...))
}

// CompletionEvent reports that a task finished after ActualDuration time
// units of execution (which may deviate from the planned w/s). The
// completion is anchored at the task's release: its start is the latest
// frozen finish among its predecessors, matching the earliest-start
// semantics of every schedule in this repo.
type CompletionEvent struct {
	Task           int     `json:"task"`
	ActualDuration float64 `json:"actual_duration"`
}

// EventResult reports what one accepted event did to the session.
type EventResult struct {
	Task            int     `json:"task"`
	Finish          float64 `json:"finish"`
	PlannedDuration float64 `json:"planned_duration"`
	ActualDuration  float64 `json:"actual_duration"`
	// Clean is true when the event required no re-solve.
	Clean bool `json:"clean"`
	// Resolved, Reused, WarmSeeded describe the replan (zero on clean
	// events): components solved, components replayed verbatim, and
	// solver runs that carried a warm seed.
	Resolved   int `json:"resolved_components"`
	Reused     int `json:"reused_components"`
	WarmSeeded int `json:"warm_seeded_components"`
	// IncurredEnergy is the energy already spent by completed tasks (at
	// their actual effective speeds); ResidualEnergy is the planned
	// energy of the remaining tasks after this event.
	IncurredEnergy float64 `json:"incurred_energy"`
	ResidualEnergy float64 `json:"residual_energy"`
	Remaining      int     `json:"remaining"`
}

// Session is an executing schedule that reclaims energy online. All
// methods are safe for concurrent use; events serialize on an internal
// lock.
type Session struct {
	mu   sync.Mutex
	prob *core.Problem
	mdl  model.Model
	opts Options

	completed []bool
	finish    []float64       // frozen actual finish times (completed tasks)
	profiles  []sched.Profile // current per-task profile: actual for completed, planned for remaining
	release   []float64       // earliest start per task: latest frozen-predecessor finish
	needs     []bool          // remaining task whose constraints changed since its last solve
	remaining int

	energyIncurred float64
	infeasible     bool
	stats          Stats

	// onComponent, when set, observes every re-solved residual component
	// the moment its solver finishes (see SetOnComponent).
	onComponent func(ComponentUpdate)
}

// ComponentUpdate describes one re-solved residual component, pushed to the
// SetOnComponent observer as soon as its solver finishes — possibly while
// other dirty components of the same replan are still solving. Task IDs are
// original problem IDs (not residual-local), so consumers can stream the
// update without knowing the residual mapping.
type ComponentUpdate struct {
	// Tasks lists the component's original task IDs.
	Tasks []int
	// Energy is the component's re-planned energy.
	Energy float64
	// Profiles are the re-planned speed profiles, aligned with Tasks.
	Profiles []sched.Profile
}

// SetOnComponent registers an observer for re-solved residual components.
// f fires once per dirtied component per replan, on the goroutine applying
// the event while the session's event lock is held: it must not call back
// into the session and should return quickly (push to a buffered channel,
// drop on overflow). Passing nil removes the observer.
func (s *Session) SetOnComponent(f func(ComponentUpdate)) {
	s.mu.Lock()
	s.onComponent = f
	s.mu.Unlock()
}

// NewSession starts a reclaiming session over a solved problem. sol must
// be a solution of p under m (it is re-verified); the session takes its
// own copy of the per-task profiles.
func NewSession(p *core.Problem, m model.Model, sol *core.Solution, opts Options) (*Session, error) {
	if p == nil || sol == nil || sol.Schedule == nil {
		return nil, errors.New("reclaim: need a problem and its solution")
	}
	if err := p.Verify(sol, 1e-6); err != nil {
		return nil, fmt.Errorf("reclaim: initial solution rejected: %w", err)
	}
	n := p.G.N()
	s := &Session{
		prob:      p,
		mdl:       m,
		opts:      opts,
		completed: make([]bool, n),
		finish:    make([]float64, n),
		profiles:  make([]sched.Profile, n),
		release:   make([]float64, n),
		needs:     make([]bool, n),
		remaining: n,
	}
	copy(s.profiles, sol.Schedule.Profiles)
	return s, nil
}

// Close does nothing: a session holds no resource beyond its memory. It is
// kept so existing callers compile.
func (s *Session) Close() {}

// ReplanGate admits one residual re-solve into an external worker pool.
// ApplyEventGated calls it right before a re-solve and runs the returned
// release when the solve finishes; on a gate error the re-solve is
// skipped — the completion stays recorded, the dirty flags stay set, and
// the next event retries — exactly the semantics of a failed re-solve.
// The gate runs while the session's event lock is held: events of one
// session serialize anyway, so blocking here blocks only this session.
type ReplanGate func() (release func(), err error)

// ApplyEvent ingests one completion. Invalid events (ErrBadEvent) leave
// the session untouched. A valid completion is always recorded, even when
// the residual re-solve it triggers fails (e.g. ErrInfeasible after a
// late completion) — in that case the remaining tasks keep their previous
// speeds and the re-solve is retried on the next event.
func (s *Session) ApplyEvent(ev CompletionEvent) (*EventResult, error) {
	return s.ApplyEventGated(ev, nil)
}

// ApplyEventGated is ApplyEvent with a pool gate: clean events (the
// common case under sustained traffic) never touch the gate, and a
// deviating event claims a solver slot only for the duration of its
// residual re-solve. gate may be nil (no gating).
func (s *Session) ApplyEventGated(ev CompletionEvent, gate ReplanGate) (*EventResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.remaining == 0 {
		return nil, ErrSessionDone
	}
	n := s.prob.G.N()
	if ev.Task < 0 || ev.Task >= n {
		return nil, badEvent("task %d out of range [0,%d)", ev.Task, n)
	}
	t := ev.Task
	if s.completed[t] {
		return nil, badEvent("task %d already completed (duplicate event)", t)
	}
	for _, u := range s.prob.G.Pred(t) {
		if !s.completed[u] {
			return nil, badEvent("task %d completed before its predecessor %d (out of order)", t, u)
		}
	}
	if !(ev.ActualDuration > 0) || math.IsInf(ev.ActualDuration, 0) || math.IsNaN(ev.ActualDuration) {
		return nil, badEvent("task %d has invalid actual duration %v", t, ev.ActualDuration)
	}
	if s := s.prob.G.Weight(t) / ev.ActualDuration; !(s > 0) || math.IsInf(s, 0) {
		// A duration so extreme the effective speed over- or underflows
		// would poison every downstream energy account.
		return nil, badEvent("task %d duration %v implies unrepresentable speed", t, ev.ActualDuration)
	}

	plannedDur := s.profiles[t].Duration()
	F := s.release[t] + ev.ActualDuration
	clean := math.Abs(ev.ActualDuration-plannedDur) <= deviationTol*math.Max(1, plannedDur)

	// Freeze. On-plan completions keep the planned profile (bit-exact
	// replay, and a Vdd task's mode hops survive); a deviating task is
	// recorded at its effective constant speed w/ActualDuration — the
	// work is conserved, the timing is what actually happened — and its
	// energy accounts at that speed.
	w := s.prob.G.Weight(t)
	s.completed[t] = true
	s.finish[t] = F
	if !clean {
		s.profiles[t] = sched.ConstantProfile(w, w/ev.ActualDuration)
	}
	s.needs[t] = false
	s.energyIncurred += s.profiles[t].Energy()
	s.remaining--
	s.stats.Events++

	// The completion rewrites its incomplete successors' constraints: the
	// precedence edge from t becomes the release time F. On-plan
	// completions leave the residual optimum untouched (freezing
	// variables of an optimum at their optimal values is free), so only
	// deviations mark successors dirty.
	for _, v := range s.prob.G.Succ(t) {
		if s.completed[v] {
			continue
		}
		if F > s.release[v] {
			s.release[v] = F
		}
		if !clean {
			s.needs[v] = true
		}
	}

	res := &EventResult{
		Task:            t,
		Finish:          F,
		PlannedDuration: plannedDur,
		ActualDuration:  ev.ActualDuration,
		Clean:           true,
		Remaining:       s.remaining,
	}
	pending := false
	for i := 0; i < n; i++ {
		if !s.completed[i] && s.needs[i] {
			pending = true
			break
		}
	}
	if s.remaining > 0 && pending {
		res.Clean = false
		if gate != nil {
			release, gerr := gate()
			if gerr != nil {
				// Pool admission failed (overload, caller deadline): the
				// completion stays recorded, the dirty flags stay set, and
				// the next event retries the re-solve — the same contract
				// as a failed re-solve, without burning a solver slot.
				res.IncurredEnergy = s.energyIncurred
				res.ResidualEnergy = s.residualEnergyLocked()
				return res, gerr
			}
			defer release()
		}
		s.stats.Replans++
		rr, err := func() (rr *plan.ReplanResult, err error) {
			// A panic outside the executor's stages (residual split,
			// classification, merge) fails this event like any re-solve
			// error — the completion stays recorded, the next event
			// retries — instead of unwinding through the HTTP handler.
			defer func() {
				if r := recover(); r != nil {
					err = resilience.RecoverPanic("session replan", r)
				}
			}()
			return s.replanLocked()
		}()
		if err != nil {
			res.IncurredEnergy = s.energyIncurred
			res.ResidualEnergy = s.residualEnergyLocked()
			return res, err
		}
		res.Resolved = rr.Resolved
		res.Reused = rr.Reused
		res.WarmSeeded = rr.WarmSeeded
		s.stats.ComponentsResolved += rr.Resolved
		s.stats.ComponentsReused += rr.Reused
		s.stats.WarmSeeded += rr.WarmSeeded
	} else {
		s.stats.Clean++
	}
	res.IncurredEnergy = s.energyIncurred
	res.ResidualEnergy = s.residualEnergyLocked()
	return res, nil
}

// replanLocked re-solves the residual instance, incrementally unless the
// session is Cold. Caller holds s.mu.
func (s *Session) replanLocked() (*plan.ReplanResult, error) {
	resProb, back, residual, err := s.residualLocked()
	if err != nil {
		return nil, err
	}
	rp, err := plan.AnalyzeResidual(resProb, s.mdl, plan.Options{
		Algorithm:  s.opts.Algorithm,
		K:          s.opts.K,
		Structures: s.opts.Structures,
	}, residual)
	if err != nil {
		s.infeasible = true
		return nil, err
	}
	dirty := s.dirtyLocked(rp, back)
	var obs plan.Observer
	if s.onComponent != nil {
		obs.Component = func(_ *plan.Plan, ci int, sol *core.Solution) error {
			cp := rp.Components[ci]
			upd := ComponentUpdate{
				Tasks:    make([]int, len(cp.Tasks)),
				Energy:   sol.Energy,
				Profiles: slices.Clone(sol.Schedule.Profiles),
			}
			for k, local := range cp.Tasks {
				upd.Tasks[k] = back[local]
			}
			s.onComponent(upd)
			return nil
		}
	}
	rr, err := plan.Replan(rp, dirty, obs)
	if err != nil {
		// Keep the previous profiles (stale but complete); the needs
		// flags stay set so the next event retries.
		s.infeasible = true
		return nil, err
	}
	for local, id := range back {
		s.profiles[id] = rr.Solution.Schedule.Profiles[local]
		s.needs[id] = false
	}
	s.infeasible = false
	return rr, nil
}

// residualLocked builds the residual instance over the remaining tasks:
// their induced subgraph under the original deadline, each task released
// at its latest frozen-predecessor finish and seeded with its current
// speeds (profiles under Vdd-Hopping). back maps residual task IDs to the
// session's. Caller holds s.mu.
func (s *Session) residualLocked() (*core.Problem, []int, plan.Residual, error) {
	ids := make([]int, 0, s.remaining)
	for i, done := range s.completed {
		if !done {
			ids = append(ids, i)
		}
	}
	sub, back, err := s.prob.G.InducedSubgraph(ids)
	if err != nil {
		return nil, nil, plan.Residual{}, err
	}
	resProb, err := core.NewProblem(sub, s.prob.Deadline)
	if err != nil {
		return nil, nil, plan.Residual{}, err
	}
	nr := len(back)
	rel := make([]float64, nr)
	for local, id := range back {
		rel[local] = s.release[id]
	}
	residual := plan.Residual{Release: rel, Cold: s.opts.Cold}
	if s.mdl.Kind == model.VddHopping {
		residual.PrevProfiles = make([]sched.Profile, nr)
		for local, id := range back {
			residual.PrevProfiles[local] = s.profiles[id]
		}
	} else {
		residual.PrevSpeeds = make([]float64, nr)
		for local, id := range back {
			if len(s.profiles[id]) == 0 {
				return nil, nil, plan.Residual{}, fmt.Errorf("reclaim: task %d has no profile", id)
			}
			residual.PrevSpeeds[local] = s.profiles[id][0].Speed
		}
	}
	return resProb, back, residual, nil
}

// dirtyLocked lists the components of the residual plan rp to re-solve:
// every one when the session is Cold, else those holding a task whose
// constraints changed since its last solve. Caller holds s.mu.
func (s *Session) dirtyLocked(rp *plan.Plan, back []int) []plan.ComponentID {
	var dirty []plan.ComponentID
	for ci, cp := range rp.Components {
		if s.opts.Cold {
			dirty = append(dirty, ci)
			continue
		}
		for _, local := range cp.Tasks {
			if s.needs[back[local]] {
				dirty = append(dirty, ci)
				break
			}
		}
	}
	return dirty
}

// residualEnergyLocked sums the planned energy of the remaining tasks.
func (s *Session) residualEnergyLocked() float64 {
	e := 0.0
	for i, done := range s.completed {
		if !done {
			e += s.profiles[i].Energy()
		}
	}
	return e
}

// Schedule builds the current merged schedule: completed tasks at their
// actual effective speeds (their earliest-start propagation reproduces the
// frozen finish times exactly), remaining tasks at their latest planned
// speeds.
func (s *Session) Schedule() (*sched.Schedule, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	profiles := make([]sched.Profile, len(s.profiles))
	copy(profiles, s.profiles)
	return sched.FromProfiles(s.prob.G, profiles)
}

// Energy returns the energy already incurred by completed tasks and the
// planned energy of the remaining ones; their sum is the projected total.
func (s *Session) Energy() (incurred, residual float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.energyIncurred, s.residualEnergyLocked()
}

// Remaining returns the number of incomplete tasks.
func (s *Session) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remaining
}

// Done reports whether every task has completed.
func (s *Session) Done() bool { return s.Remaining() == 0 }

// Infeasible reports whether the latest residual re-solve failed (e.g. a
// late completion pushed the residual past the deadline) and the session
// is coasting on stale speeds.
func (s *Session) Infeasible() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infeasible
}

// CompletedTasks returns a copy of the per-task completion flags.
func (s *Session) CompletedTasks() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]bool, len(s.completed))
	copy(out, s.completed)
	return out
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Problem exposes the underlying problem (read-only by convention).
func (s *Session) Problem() *core.Problem { return s.prob }

// Model exposes the session's energy model.
func (s *Session) Model() model.Model { return s.mdl }

// Replay drives the session to completion with jittered durations, closed
// loop: each task's actual duration is its *current* planned duration (so
// re-sped tasks execute at their re-planned speeds) times its factor, and
// the next completion is always the ready task with the earliest actual
// finish — exactly the order a machine running those speeds would emit.
// factors may be nil (all ones — the zero-deviation replay). Returns the
// per-event results; a replan failure (e.g. ErrInfeasible after a late
// completion) stops the replay and returns the error alongside the results
// so far.
func (s *Session) Replay(factors []float64) ([]EventResult, error) {
	n := s.prob.G.N()
	if factors != nil && len(factors) != n {
		return nil, fmt.Errorf("reclaim: %d factors for %d tasks", len(factors), n)
	}
	var results []EventResult
	for {
		ev, ok := s.nextCompletion(factors)
		if !ok {
			return results, nil
		}
		res, err := s.ApplyEvent(ev)
		if res != nil {
			results = append(results, *res)
		}
		if err != nil {
			return results, err
		}
	}
}

// nextCompletion picks the ready incomplete task with the earliest actual
// finish under the current plan (ties break by ID). Every incomplete
// non-ready task finishes strictly after some ready task, so this is the
// machine's true next completion.
func (s *Session) nextCompletion(factors []float64) (CompletionEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestF, bestDur := -1, math.Inf(1), 0.0
	for t := range s.completed {
		if s.completed[t] {
			continue
		}
		ready := true
		for _, u := range s.prob.G.Pred(t) {
			if !s.completed[u] {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		dur := s.profiles[t].Duration()
		if factors != nil {
			dur *= factors[t]
		}
		if f := s.release[t] + dur; f < bestF {
			best, bestF, bestDur = t, f, dur
		}
	}
	if best < 0 {
		return CompletionEvent{}, false
	}
	return CompletionEvent{Task: best, ActualDuration: bestDur}, true
}

// Trace builds the open-loop completion-event stream that replays a
// planned schedule with per-task duration factors (actual = planned ×
// factor): events are ordered by the actual finish times the factors
// induce, so predecessors always complete first. factors may be nil (all
// ones — the zero-deviation replay). Unlike Replay, the durations are
// fixed up front from the given schedule — the stream simulates a machine
// that ignores re-planning, which is what the HTTP event API and the fuzz
// corpus want.
func Trace(g *graph.Graph, planned *sched.Schedule, factors []float64) ([]CompletionEvent, error) {
	n := g.N()
	if len(planned.Profiles) != n {
		return nil, fmt.Errorf("reclaim: schedule covers %d of %d tasks", len(planned.Profiles), n)
	}
	if factors != nil && len(factors) != n {
		return nil, fmt.Errorf("reclaim: %d factors for %d tasks", len(factors), n)
	}
	actual := make([]float64, n)
	for i := range actual {
		actual[i] = planned.Profiles[i].Duration()
		if factors != nil {
			actual[i] *= factors[i]
		}
		if !(actual[i] > 0) {
			return nil, fmt.Errorf("reclaim: task %d has non-positive actual duration %v", i, actual[i])
		}
	}
	pa, err := g.Analyze(actual, 0)
	if err != nil {
		return nil, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort by actual finish; durations are positive, so every task
	// finishes strictly after its predecessors and the order is a valid
	// completion sequence. Ties break by ID for determinism.
	finish := pa.EarliestFinish
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if finish[a] != finish[b] {
			return finish[a] < finish[b]
		}
		return a < b
	})
	events := make([]CompletionEvent, n)
	for k, t := range order {
		events[k] = CompletionEvent{Task: t, ActualDuration: actual[t]}
	}
	return events, nil
}
