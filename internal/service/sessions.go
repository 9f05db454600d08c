package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// The session subsystem: long-lived reclaiming sessions over the same
// engine that serves one-shot solves. POST /v1/sessions runs the initial
// solve through the engine (sharing its worker pool, cache, and
// singleflight), wraps the solution in a reclaim.Session, and hands back
// an ID; POST /v1/sessions/{id}/events streams completions into it —
// re-solving residuals on the engine's pool — and GET
// /v1/sessions/{id}/schedule reads the merged execution state.

// Errors of the session layer.
var (
	// ErrSessionNotFound is returned for an unknown or deleted session ID.
	ErrSessionNotFound = errors.New("service: session not found")
	// ErrTooManySessions is returned when the store is at capacity.
	ErrTooManySessions = errors.New("service: session limit reached — delete finished sessions or raise MaxSessions")
)

// SessionRequest creates a reclaiming session: the embedded SolveRequest
// describes and solves the instance exactly as POST /v1/solve would.
type SessionRequest struct {
	SolveRequest
	// Cold disables the session's incremental reuse and warm starts
	// (every deviation re-solves the full residual from scratch);
	// diagnostics and benchmarking.
	Cold bool `json:"cold,omitempty"`
}

// SessionResponse answers session creation.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	Tasks     int    `json:"tasks"`
	Remaining int    `json:"remaining"`
	// Solve is the initial solution (cache provenance included).
	Solve *SolveResponse `json:"solve"`
}

// SessionEventsRequest streams completion events, applied in order.
type SessionEventsRequest struct {
	Events []reclaim.CompletionEvent `json:"events"`
	// TimeoutMS bounds this batch's wall time (HTTP layer; 0 = server
	// default), mirroring SolveRequest.TimeoutMS: residual re-solves are
	// real solver work and deserve the same budget control.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SessionEventJSON is one event's outcome. Result is present whenever the
// completion was recorded; Error is present when something failed — a
// rejected event (unknown task, duplicate, out-of-order, bad duration:
// Error only, session untouched) or a recorded completion whose residual
// re-solve failed (Result and Error together, e.g. a late completion
// pushing the residual past the deadline). Neither kind stops the batch —
// later events still apply.
type SessionEventJSON struct {
	Result *reclaim.EventResult `json:"result,omitempty"`
	Error  *APIError            `json:"error,omitempty"`
}

// SessionEventsResponse summarizes an event batch.
type SessionEventsResponse struct {
	SessionID string             `json:"session_id"`
	Results   []SessionEventJSON `json:"results"`
	Remaining int                `json:"remaining"`
	// IncurredEnergy is spent by completed tasks; ResidualEnergy is the
	// current plan for the rest.
	IncurredEnergy float64       `json:"incurred_energy"`
	ResidualEnergy float64       `json:"residual_energy"`
	Infeasible     bool          `json:"infeasible"`
	Stats          reclaim.Stats `json:"stats"`
	ElapsedMS      float64       `json:"elapsed_ms"`
}

// SessionTaskJSON is one task's execution state in a schedule snapshot.
type SessionTaskJSON struct {
	Task      int           `json:"task"`
	Completed bool          `json:"completed"`
	Start     float64       `json:"start"`
	Finish    float64       `json:"finish"`
	Profile   []SegmentJSON `json:"profile"`
}

// SessionScheduleResponse is the merged execution state of a session.
type SessionScheduleResponse struct {
	SessionID      string            `json:"session_id"`
	Tasks          int               `json:"tasks"`
	Remaining      int               `json:"remaining"`
	Deadline       float64           `json:"deadline"`
	Makespan       float64           `json:"makespan"`
	IncurredEnergy float64           `json:"incurred_energy"`
	ResidualEnergy float64           `json:"residual_energy"`
	TotalEnergy    float64           `json:"total_energy"`
	Infeasible     bool              `json:"infeasible"`
	TaskStates     []SessionTaskJSON `json:"task_states"`
	Stats          reclaim.Stats     `json:"stats"`
}

// SessionInfoJSON is one row of the session listing.
type SessionInfoJSON struct {
	SessionID string `json:"session_id"`
	Tasks     int    `json:"tasks"`
	Remaining int    `json:"remaining"`
	CreatedMS int64  `json:"created_unix_ms"`
}

// SessionListResponse lists live sessions. Count duplicates
// len(Sessions) so shell clients can read the size without parsing the
// array (added alongside the streaming API; the sessions array is
// unchanged, so pre-existing clients keep working).
type SessionListResponse struct {
	Sessions []SessionInfoJSON `json:"sessions"`
	Count    int               `json:"count"`
}

// sessionEntry couples a live session with its bookkeeping. lastUsed and
// remaining are atomics so the eviction sweep can classify entries without
// taking any session lock — a session mid-replan holds its own mutex for
// the length of a solver run, and a sweep that waited on it while holding
// the store lock would stall every Create/Delete/lookup behind it.
type sessionEntry struct {
	id      string
	created time.Time
	sess    *reclaim.Session
	// lastUsed is the unix-nano timestamp of the last request that touched
	// this session (create, events, schedule).
	lastUsed atomic.Int64
	// remaining mirrors sess.Remaining() after every event batch; zero
	// marks the session finished and eligible for the finished sweep.
	remaining atomic.Int64
	// closed is set (under the store lock) by Delete and eviction. An
	// in-flight event batch checks it between events, so a concurrently
	// deleted session stops accepting mutations instead of becoming a
	// ghost the batch keeps writing to.
	closed atomic.Bool
	// hub fans the session's events out to /watch subscribers.
	hub *watchHub
}

func (e *sessionEntry) touch(now time.Time) { e.lastUsed.Store(now.UnixNano()) }

func (e *sessionEntry) idle(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, e.lastUsed.Load()))
}

// SessionConfig tunes a SessionStore. The zero value picks the defaults;
// NewHandler derives it from HTTPOptions.
type SessionConfig struct {
	// MaxSessions bounds live sessions (≤ 0 → 1024).
	MaxSessions int
	// IdleTTL evicts sessions no request has touched for this long —
	// abandoned executions must not occupy capacity forever (≤ 0 → 10m).
	IdleTTL time.Duration
	// FinishedTTL is the linger granted to finished sessions
	// (Remaining() == 0) before the sweep reclaims them; under capacity
	// pressure finished sessions are reclaimed immediately (≤ 0 → 30s).
	FinishedTTL time.Duration
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = 10 * time.Minute
	}
	if c.FinishedTTL <= 0 {
		c.FinishedTTL = 30 * time.Second
	}
	return c
}

// SessionStats counts the store's lifecycle activity; /v1/stats exposes it
// alongside the engine counters.
type SessionStats struct {
	// Live is the current number of registered sessions.
	Live int `json:"live"`
	// Evicted totals the sweep's removals; the Finished/Idle split names
	// the reason (a completed session lingering past its TTL or capacity
	// pressure, vs. an abandoned session past the idle TTL).
	Evicted         uint64 `json:"evicted"`
	EvictedFinished uint64 `json:"evicted_finished"`
	EvictedIdle     uint64 `json:"evicted_idle"`
	// WatchersDropped counts /watch subscribers disconnected for falling
	// behind their event buffer (slow consumers are dropped, not waited on).
	WatchersDropped uint64 `json:"watchers_dropped"`
}

// SessionStore owns the live sessions of one engine. Methods are safe for
// concurrent use; per-session event ordering serializes inside
// reclaim.Session.
type SessionStore struct {
	engine *Engine
	cfg    SessionConfig
	// sweepEvery rate-limits the opportunistic time-based sweep.
	sweepEvery time.Duration

	mu       sync.Mutex
	sessions map[string]*sessionEntry
	// pending counts reserved-but-unregistered creations, so the capacity
	// bound holds across in-flight initial solves.
	pending   int
	lastSweep time.Time

	evictedFinished uint64
	evictedIdle     uint64

	watchersDropped atomic.Uint64
}

// NewSessionStore builds a store over the engine's pool.
func NewSessionStore(e *Engine, cfg SessionConfig) *SessionStore {
	cfg = cfg.withDefaults()
	sweepEvery := cfg.IdleTTL
	if cfg.FinishedTTL < sweepEvery {
		sweepEvery = cfg.FinishedTTL
	}
	sweepEvery /= 2
	return &SessionStore{
		engine:     e,
		cfg:        cfg,
		sweepEvery: sweepEvery,
		sessions:   make(map[string]*sessionEntry),
		lastSweep:  time.Now(),
	}
}

// Create compiles and solves the instance on the engine (cache and
// singleflight included) and opens a session around the solution.
func (st *SessionStore) Create(ctx context.Context, req *SessionRequest) (*SessionResponse, error) {
	if req == nil {
		return nil, badRequest("nil request")
	}
	// The store fault site, before any capacity is reserved: an injected
	// store failure costs nothing to clean up.
	if err := resilience.Fire(resilience.SiteStore); err != nil {
		return nil, err
	}
	// Reserve capacity up front so a burst of creations cannot blow past
	// the limit while solves are in flight.
	if !st.reserve() {
		return nil, ErrTooManySessions
	}
	resp, sess, err := st.buildSession(ctx, req)
	if err != nil {
		st.release()
		return nil, err
	}
	id := newSessionID()
	now := time.Now()
	entry := &sessionEntry{id: id, created: now, sess: sess}
	entry.hub = newWatchHub(&st.watchersDropped)
	// Push each dirtied component to watchers the moment its residual
	// re-solve finishes. The callback runs on the event's goroutine with the
	// session's event lock held; broadcast never blocks (slow subscribers
	// are dropped), so replan latency is untouched by watchers.
	hub := entry.hub
	sess.SetOnComponent(func(cu reclaim.ComponentUpdate) {
		data := WatchComponentData{
			SessionID: id,
			Tasks:     len(cu.Tasks),
			Energy:    cu.Energy,
		}
		if len(cu.Tasks) <= 64 {
			data.TaskIDs = cu.Tasks
			data.Profiles = profilesJSON(cu.Profiles)
		}
		hub.broadcast(EventComponent, data)
	})
	entry.touch(now)
	entry.remaining.Store(int64(sess.Remaining()))
	st.mu.Lock()
	st.sessions[id] = entry
	st.pending--
	st.mu.Unlock()
	return &SessionResponse{
		SessionID: id,
		Tasks:     sess.Problem().G.N(),
		Remaining: sess.Remaining(),
		Solve:     resp,
	}, nil
}

func (st *SessionStore) buildSession(ctx context.Context, req *SessionRequest) (*SolveResponse, *reclaim.Session, error) {
	inst, err := req.SolveRequest.compile()
	if err != nil {
		return nil, nil, err
	}
	resp, err := st.engine.Solve(ctx, &req.SolveRequest)
	if err != nil {
		return nil, nil, err
	}
	sol, err := solutionFromResponse(inst, resp)
	if err != nil {
		return nil, nil, err
	}
	sess, err := reclaim.NewSession(inst.prob, inst.mdl, sol, reclaim.Options{
		Algorithm:  inst.algo,
		K:          inst.k,
		Cold:       req.Cold,
		Structures: st.engine.structs,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return resp, sess, nil
}

// solutionFromResponse rebuilds a verified core.Solution from a solve
// response (possibly a cache hit) so the session owns real profiles, not
// wire floats.
func solutionFromResponse(inst *instance, resp *SolveResponse) (*core.Solution, error) {
	g := inst.prob.G
	var s *sched.Schedule
	var err error
	switch {
	case resp.Speeds != nil:
		s, err = sched.FromSpeeds(g, resp.Speeds)
	case resp.Profiles != nil:
		profiles := make([]sched.Profile, len(resp.Profiles))
		for i, segs := range resp.Profiles {
			p := make(sched.Profile, len(segs))
			for k, seg := range segs {
				p[k] = sched.Segment{Speed: seg.Speed, Duration: seg.Duration}
			}
			profiles[i] = p
		}
		s, err = sched.FromProfiles(g, profiles)
	default:
		return nil, errors.New("service: solve response carries neither speeds nor profiles")
	}
	if err != nil {
		return nil, err
	}
	bf := resp.BoundFactor
	if bf == 0 {
		bf = 1
	}
	return &core.Solution{
		Model:    inst.mdl,
		Schedule: s,
		Energy:   s.Energy,
		Stats:    core.Stats{Algorithm: resp.Algorithm, Exact: resp.Exact, BoundFactor: bf},
	}, nil
}

// Events applies a batch of completion events in order. Rejected events
// are reported per entry and do not abort the batch; re-solve failures
// (e.g. a late completion making the residual infeasible) are reported the
// same way, with the completion recorded. Engine pool slots (and backlog
// tokens) are claimed only around the residual re-solves that deviating
// events trigger: a storm of clean completions — the common case under
// sustained traffic — never blocks a real solve.
func (st *SessionStore) Events(ctx context.Context, id string, events []reclaim.CompletionEvent) (*SessionEventsResponse, error) {
	start := time.Now()
	entry, err := st.lookup(id)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, badRequest("no events")
	}

	// gate admits one residual re-solve: an admission slot (tenant
	// fair-share included — the X-Tenant header rides in on ctx) plus a
	// pool slot, exactly like a solve request, held only for the solve
	// itself.
	gate := func() (func(), error) { return st.engine.acquire(ctx, st.engine.tenant(ctx, "")) }

	out := &SessionEventsResponse{SessionID: id, Results: make([]SessionEventJSON, 0, len(events))}
	for _, ev := range events {
		// Every deviating event is a real solver run: stop dispatching
		// once the caller's deadline passes or it disconnects.
		// Already-applied events stay applied; the rest report canceled.
		if err := ctx.Err(); err != nil {
			_, apiErr := classify(err)
			out.Results = append(out.Results, SessionEventJSON{Error: &apiErr})
			continue
		}
		// A concurrent Delete closed this session: the entry the initial
		// lookup returned is a ghost now. Fail the remaining events
		// instead of mutating a session the store no longer owns.
		if entry.closed.Load() {
			_, apiErr := classify(ErrSessionNotFound)
			out.Results = append(out.Results, SessionEventJSON{Error: &apiErr})
			continue
		}
		res, err := entry.sess.ApplyEventGated(ev, gate)
		item := SessionEventJSON{Result: res}
		if err != nil {
			_, apiErr := classify(err)
			item.Error = &apiErr
		}
		out.Results = append(out.Results, item)
		if res != nil {
			// Watchers see every recorded completion (re-solved components
			// were already pushed from inside the replan).
			entry.hub.broadcast(EventApplied, res)
		}
	}
	out.Remaining = entry.sess.Remaining()
	entry.remaining.Store(int64(out.Remaining))
	entry.touch(time.Now())
	out.IncurredEnergy, out.ResidualEnergy = entry.sess.Energy()
	out.Infeasible = entry.sess.Infeasible()
	out.Stats = entry.sess.Stats()
	out.ElapsedMS = msSince(start)
	if out.Remaining == 0 {
		entry.hub.close(EventDone, watchTerminalData{
			SessionID:      id,
			Reason:         "completed",
			IncurredEnergy: out.IncurredEnergy,
		})
	}
	return out, nil
}

// Schedule snapshots a session's merged execution state.
func (st *SessionStore) Schedule(id string) (*SessionScheduleResponse, error) {
	entry, err := st.lookup(id)
	if err != nil {
		return nil, err
	}
	return st.scheduleOf(entry)
}

// scheduleOf builds the schedule snapshot for an already-resolved entry;
// the watch handler uses it for the opening event of a watcher.
func (st *SessionStore) scheduleOf(entry *sessionEntry) (*SessionScheduleResponse, error) {
	sess := entry.sess
	s, err := sess.Schedule()
	if err != nil {
		return nil, err
	}
	incurred, residual := sess.Energy()
	resp := &SessionScheduleResponse{
		SessionID:      entry.id,
		Tasks:          s.G.N(),
		Remaining:      sess.Remaining(),
		Deadline:       sess.Problem().Deadline,
		Makespan:       s.Makespan,
		IncurredEnergy: incurred,
		ResidualEnergy: residual,
		TotalEnergy:    incurred + residual,
		Infeasible:     sess.Infeasible(),
		TaskStates:     make([]SessionTaskJSON, s.G.N()),
		Stats:          sess.Stats(),
	}
	completed := sess.CompletedTasks()
	for i := 0; i < s.G.N(); i++ {
		resp.TaskStates[i] = SessionTaskJSON{
			Task:      i,
			Completed: completed[i],
			Start:     s.Start[i],
			Finish:    s.Finish[i],
			Profile:   segmentsJSON(s.Profiles[i]),
		}
	}
	return resp, nil
}

// Delete removes a session. The entry is marked closed under the store
// lock, so an event batch that looked the session up before this call
// fails its remaining events with ErrSessionNotFound instead of mutating
// a ghost.
func (st *SessionStore) Delete(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	entry, ok := st.sessions[id]
	if !ok {
		return ErrSessionNotFound
	}
	entry.closed.Store(true)
	delete(st.sessions, id)
	entry.hub.close(EventClosed, watchTerminalData{SessionID: id, Reason: "deleted"})
	return nil
}

// List returns the live sessions, oldest first.
func (st *SessionStore) List() *SessionListResponse {
	st.mu.Lock()
	entries := make([]*sessionEntry, 0, len(st.sessions))
	for _, e := range st.sessions {
		entries = append(entries, e)
	}
	st.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].created.Equal(entries[j].created) {
			return entries[i].created.Before(entries[j].created)
		}
		return entries[i].id < entries[j].id
	})
	out := &SessionListResponse{Sessions: make([]SessionInfoJSON, len(entries)), Count: len(entries)}
	for i, e := range entries {
		out.Sessions[i] = SessionInfoJSON{
			SessionID: e.id,
			Tasks:     e.sess.Problem().G.N(),
			Remaining: e.sess.Remaining(),
			CreatedMS: e.created.UnixMilli(),
		}
	}
	return out
}

// Len returns the number of live sessions.
func (st *SessionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

func (st *SessionStore) lookup(id string) (*sessionEntry, error) {
	if err := resilience.Fire(resilience.SiteStore); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	st.maybeSweepLocked(now)
	entry, ok := st.sessions[id]
	if !ok {
		return nil, ErrSessionNotFound
	}
	entry.touch(now)
	return entry, nil
}

// Stats snapshots the store's lifecycle counters.
func (st *SessionStore) Stats() SessionStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return SessionStats{
		Live:            len(st.sessions),
		Evicted:         st.evictedFinished + st.evictedIdle,
		EvictedFinished: st.evictedFinished,
		EvictedIdle:     st.evictedIdle,
		WatchersDropped: st.watchersDropped.Load(),
	}
}

// maybeSweepLocked runs the time-based sweep at most once per sweepEvery:
// finished sessions past their linger and abandoned sessions past the idle
// TTL are reclaimed even without capacity pressure. Caller holds st.mu.
func (st *SessionStore) maybeSweepLocked(now time.Time) {
	if now.Sub(st.lastSweep) < st.sweepEvery {
		return
	}
	st.sweepLocked(now, false)
}

// sweepLocked evicts reclaimable sessions: finished ones (immediately
// under capacity pressure, after FinishedTTL otherwise) and idle ones past
// IdleTTL. It reads only the entries' atomics — never a session lock, which
// a long replan may hold — so the store lock is never held hostage by a
// solver run. Caller holds st.mu.
func (st *SessionStore) sweepLocked(now time.Time, pressure bool) {
	st.lastSweep = now
	for id, e := range st.sessions {
		idle := e.idle(now)
		switch {
		case e.remaining.Load() == 0 && (pressure || idle >= st.cfg.FinishedTTL):
			e.closed.Store(true)
			delete(st.sessions, id)
			st.evictedFinished++
			e.hub.close(EventClosed, watchTerminalData{SessionID: id, Reason: "evicted"})
		case idle >= st.cfg.IdleTTL:
			e.closed.Store(true)
			delete(st.sessions, id)
			st.evictedIdle++
			e.hub.close(EventClosed, watchTerminalData{SessionID: id, Reason: "evicted"})
		}
	}
}

// reserve claims a capacity slot by inserting a tombstone-free count check;
// release undoes a failed creation. At capacity it sweeps first, so
// finished and abandoned sessions are reclaimed instead of pinning the
// store at its limit forever (sustained churn used to end in a permanent
// 503 once MaxSessions distinct sessions had ever existed).
func (st *SessionStore) reserve() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	st.maybeSweepLocked(now)
	if len(st.sessions)+st.pending >= st.cfg.MaxSessions {
		st.sweepLocked(now, true)
	}
	if len(st.sessions)+st.pending >= st.cfg.MaxSessions {
		return false
	}
	st.pending++
	return true
}

func (st *SessionStore) release() {
	st.mu.Lock()
	st.pending--
	st.mu.Unlock()
}

func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived ID; uniqueness still overwhelmingly
		// likely and sessions are not a security boundary.
		return fmt.Sprintf("sess-%d", time.Now().UnixNano())
	}
	return "sess-" + hex.EncodeToString(b[:])
}

func segmentsJSON(p sched.Profile) []SegmentJSON {
	out := make([]SegmentJSON, len(p))
	for i, seg := range p {
		out[i] = SegmentJSON{Speed: seg.Speed, Duration: seg.Duration}
	}
	return out
}
