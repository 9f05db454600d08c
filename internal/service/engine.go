// Package service is the concurrent serving layer over the MinEnergy(G, D)
// solvers: an Engine that dispatches single and batched solve requests
// across a bounded worker pool and fronts the solvers with an LRU result
// cache keyed by a canonical hash of the execution graph, deadline, and
// model parameters — repeated instances skip the solver entirely. Every
// solve runs on the planner's one component executor (plan.Solve), which
// routes each weakly-connected component by its structure and solves a
// request's components one after another, so Options.Workers bounds the
// solver goroutines of one-shot and streamed solves; a stream only adds
// observers, and one post-solve tail (verify, count, cache) finishes every
// response, with its plan attached. The HTTP handlers in this package
// expose the same Engine over JSON endpoints (POST /v1/solve,
// POST /v1/solve/batch, POST /v1/plan for analysis without solving,
// GET /v1/stats, GET /healthz); cmd/energyserver wraps them in a binary.
//
// Beneath the instance cache sits a structure-keyed one: an LRU of
// per-shape artifacts (component classification, SP decompositions,
// compiled sparse-kernel programs with pooled numeric workspaces) keyed
// by graph.StructuralFingerprint, which masks every numeric field so all
// value-variants of one shape share an entry. Traffic that re-submits a
// known shape with new weights or a new deadline misses the instance
// cache but skips the ordering, symbolic analysis, and classification
// work entirely — only the numeric solve runs. The layer is shared by
// one-shot solves, streams, and reclaim sessions, sized by
// Options.StructureCacheSize, and reported in /v1/stats as
// structure_hits, structure_misses, and structure_len. Both layers, and
// the compiled-kernel cache beneath the structure one, are the same
// generic LRU (internal/lru).
package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/plan"
	"repro/internal/resilience"
)

// Options configures an Engine. The zero value picks sensible defaults.
type Options struct {
	// Workers bounds the number of solves in flight (default GOMAXPROCS).
	Workers int
	// CacheSize is the LRU capacity in instances (default 1024; negative
	// disables caching).
	CacheSize int
	// VerifyTol, when positive, re-checks every fresh solution independently
	// before returning or caching it (schedule feasibility, speed
	// admissibility, energy accounting) at that relative tolerance. Cheap
	// relative to solving; zero skips the check.
	VerifyTol float64
	// MaxBacklog bounds queued-plus-running solves; beyond it new work is
	// shed with ErrOverloaded instead of growing the queue without bound
	// (default 256, negative disables shedding).
	MaxBacklog int
	// StructureCacheSize bounds the structure-keyed amortization cache: an
	// LRU of per-component classification artifacts and compiled continuous
	// kernels keyed by structural fingerprint (values masked), shared by
	// the monolithic path, the streaming pipeline, and reclaim sessions.
	// Unlike the instance cache, it hits whenever the *shape* repeats even
	// if every weight and deadline changed (default 256; negative disables).
	StructureCacheSize int
	// TenantWeights sets per-tenant fair-share multipliers for the
	// admission gate (see X-Tenant / SolveRequest.Tenant). Tenants absent
	// from the map get weight 1. The gate divides Workers+MaxBacklog among
	// *active* tenants in weight proportion, so a flooding tenant is capped
	// at its share and rejected with tenant_quota instead of starving the
	// rest out of the pool.
	TenantWeights map[string]int
	// DegradeWatermark is the overload fraction of MaxBacklog at which the
	// planner reroutes expensive components to the bounded uniform
	// heuristic (responses marked "degraded": true with the a-priori
	// bound). Default 0.75; negative disables degraded mode; it is also
	// disabled when shedding is (MaxBacklog < 0), since there is no
	// meaningful depth to watermark against.
	DegradeWatermark float64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) maxBacklog() int64 {
	switch {
	case o.MaxBacklog > 0:
		return int64(o.MaxBacklog)
	case o.MaxBacklog < 0:
		return 1 << 62 // effectively unbounded
	default:
		return 256
	}
}

// degradeAt converts the watermark fraction into an absolute admission
// depth; 0 disables (no degraded mode).
func (o Options) degradeAt() int64 {
	if o.DegradeWatermark < 0 || o.MaxBacklog < 0 {
		return 0
	}
	frac := o.DegradeWatermark
	if frac == 0 {
		frac = 0.75
	}
	// The watermark is a fraction of the admission capacity (MaxBacklog
	// bounds queued-plus-running work), clamped so tiny pools can degrade.
	at := int64(frac * float64(o.maxBacklog()))
	if at < 1 {
		at = 1
	}
	return at
}

// capacity resolves a cache-size option: zero picks def, a negative size
// disables the cache (0).
func capacity(size, def int) int {
	if size == 0 {
		return def
	}
	return max(size, 0)
}

// Engine is a concurrent, cached MinEnergy solve service. It is safe for
// use by any number of goroutines; the zero value is not usable — construct
// with NewEngine.
type Engine struct {
	sem       chan struct{}
	cache     *lru.Cache[string, *SolveResponse]
	structs   *plan.StructureCache // nil when disabled
	verifyTol float64
	adm       *resilience.Admission
	degradeAt int64 // admission depth that flips degraded mode on (0 = never)

	flightMu sync.Mutex
	flight   map[string]*call

	hits             atomic.Uint64
	misses           atomic.Uint64
	coalesced        atomic.Uint64
	solved           atomic.Uint64
	failures         atomic.Uint64
	shed             atomic.Uint64
	canceled         atomic.Uint64
	degraded         atomic.Uint64
	tenantRejections atomic.Uint64
	deadlineShed     atomic.Uint64
}

// call is one in-flight solve that concurrent identical requests share.
type call struct {
	done chan struct{}
	resp *SolveResponse
	// hit marks a call satisfied from the cache by the leader's post-join
	// re-check rather than by a solver run.
	hit bool
	err error
}

// NewEngine builds an Engine with the given options.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		sem:       make(chan struct{}, opts.workers()),
		cache:     lru.New[string, *SolveResponse](capacity(opts.CacheSize, 1024)),
		verifyTol: opts.VerifyTol,
		adm:       resilience.NewAdmission(opts.maxBacklog(), opts.TenantWeights),
		degradeAt: opts.degradeAt(),
		flight:    make(map[string]*call),
	}
	if size := capacity(opts.StructureCacheSize, 256); size > 0 {
		e.structs = plan.NewStructureCache(size)
	}
	return e
}

// Structures returns the engine's structure-keyed amortization cache (nil
// when disabled). The session store hands it to reclaim sessions, so their
// replans share it with one-shot solves and streams.
func (e *Engine) Structures() *plan.StructureCache { return e.structs }

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Hits counts requests answered from the instance cache.
	Hits uint64 `json:"hits"`
	// Misses counts requests that had to run (or wait for) a solver.
	Misses uint64 `json:"misses"`
	// Coalesced counts misses that joined an identical in-flight solve
	// instead of running their own.
	Coalesced uint64 `json:"coalesced"`
	// Solved counts solver runs that produced a solution.
	Solved uint64 `json:"solved"`
	// Failures counts solver runs that returned an error.
	Failures uint64 `json:"failures"`
	// Shed counts admissions refused because the backlog was full — every
	// ErrOverloaded handed out, whether to a solve, an explain, or a
	// session event's residual re-solve. A load test reads this to tell
	// deliberate load-shedding apart from failures.
	Shed uint64 `json:"shed"`
	// Canceled counts streaming solves abandoned by context cancellation
	// (client disconnect or deadline) before completing. Detached solves
	// never cancel — they run to completion and populate the cache.
	Canceled uint64 `json:"canceled"`
	// Degraded counts responses answered by the bounded uniform heuristic
	// under overload (marked "degraded": true on the wire).
	Degraded uint64 `json:"degraded"`
	// TenantRejections counts admissions refused by the per-tenant
	// fair-share quota (wire code tenant_quota) — a subset of total
	// rejections; global-capacity refusals count in Shed.
	TenantRejections uint64 `json:"tenant_rejections"`
	// DeadlineShed counts work abandoned because its deadline budget was
	// already spent before it reached the pool (a subset of Shed).
	DeadlineShed uint64 `json:"deadline_shed"`
	// PanicsRecovered counts panics converted to internal_error responses
	// by the recovery barriers (engine workers, pipeline stages, session
	// replans). Process-wide, monotonic; nonzero without fault injection
	// means a real solver bug was contained.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// TenantInFlight is the per-tenant admitted-work gauge (queued or
	// running). Empty when the engine is idle.
	TenantInFlight map[string]int64 `json:"tenant_in_flight,omitempty"`
	// Backlog is the current queued-plus-running admission count — a gauge,
	// not a counter. It returns to zero when the engine is idle; the
	// streaming disconnect tests read it to prove no pool slot leaked.
	Backlog int64 `json:"backlog"`
	// CacheLen is the current number of cached instances.
	CacheLen int `json:"cache_len"`
	// StructureHits / StructureMisses count structure-cache lookups across
	// both of its layers — per-component classification and compiled
	// continuous kernels. Value-jittered repeats of a known shape miss the
	// instance cache (Hits/Misses above) but land here as hits: the spread
	// between the two pairs is the amortization the structure cache buys.
	StructureHits   uint64 `json:"structure_hits"`
	StructureMisses uint64 `json:"structure_misses"`
	// StructureLen is the current number of cached structure entries.
	StructureLen int `json:"structure_len"`
	// Workers is the worker-pool bound.
	Workers int `json:"workers"`
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Hits:             e.hits.Load(),
		Misses:           e.misses.Load(),
		Coalesced:        e.coalesced.Load(),
		Solved:           e.solved.Load(),
		Failures:         e.failures.Load(),
		Shed:             e.shed.Load(),
		Canceled:         e.canceled.Load(),
		Degraded:         e.degraded.Load(),
		TenantRejections: e.tenantRejections.Load(),
		DeadlineShed:     e.deadlineShed.Load(),
		PanicsRecovered:  resilience.PanicsRecovered(),
		TenantInFlight:   e.adm.InFlight(),
		Backlog:          e.adm.Depth(),
		CacheLen:         e.cache.Len(),
		Workers:          cap(e.sem),
	}
	if e.structs != nil {
		k := e.structs.Kernels()
		s.StructureHits = e.structs.Hits() + k.Hits()
		s.StructureMisses = e.structs.Misses() + k.Misses()
		s.StructureLen = e.structs.Len() + k.Len()
	}
	return s
}

// Solve answers one request: compile, consult the cache, and on a miss run
// the solver on the worker pool. Concurrent identical misses coalesce onto
// one in-flight solve (singleflight), so a repeated instance runs the
// solver at most once even before its first result lands in the cache. The
// context bounds only the caller's wait: once dispatched, a solve always
// runs to completion in the background (solver kernels are not
// interruptible) and still populates the cache — abandoning callers get
// ctx.Err() immediately, later callers get the cached result.
func (e *Engine) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	start := time.Now()
	inst, err := req.compile()
	if err != nil {
		return nil, err
	}

	key := cacheKey(inst)
	if !req.NoCache {
		if cached, ok := e.cache.Get(key); ok {
			e.hits.Add(1)
			return reply(cached, req, true, start), nil
		}
	}

	// Work whose deadline budget is already spent is shed before it can
	// commit the engine to background work.
	if err := e.checkBudget(ctx); err != nil {
		return nil, err
	}

	tenant := e.tenant(ctx, req.Tenant)
	var c *call
	var follower bool
	if req.NoCache {
		// An explicit fresh solve never joins (or leads) a shared flight.
		e.misses.Add(1)
		release, err := e.admitFor(tenant)
		if err != nil {
			return nil, err
		}
		c = &call{done: make(chan struct{})}
		e.spawn(inst, key, e.degradedNow(), c, release, nil)
	} else {
		var leader bool
		c, leader = e.join(key)
		switch {
		case !leader:
			// Counted on completion: only then is it known whether this
			// waiter sat behind a solver run (miss, coalesced) or behind a
			// leader whose post-join re-check hit the cache (hit).
			follower = true
		default:
			if cached, ok := e.cache.Get(key); ok {
				// The first cache check raced with a completing solve for
				// this key: it cached its result and left the flight map
				// between our miss and our join. Serve the cached response
				// (to any waiters who joined behind us too) instead of
				// re-running the solver.
				e.hits.Add(1)
				c.resp, c.hit = cached, true
				e.unjoin(key)
				close(c.done)
				break
			}
			e.misses.Add(1)
			release, err := e.admitFor(tenant)
			if err != nil {
				// Publish the shed before deregistering: a waiter may have
				// joined between our join and this point.
				c.err = err
				e.unjoin(key)
				close(c.done)
				return nil, err
			}
			e.spawn(inst, key, e.degradedNow(), c, release, func() { e.unjoin(key) })
		}
	}

	select {
	case <-c.done:
		if follower {
			// Abandoned waiters (ctx branch below) count as neither: they
			// never observed an outcome.
			if c.hit {
				e.hits.Add(1)
			} else {
				e.misses.Add(1)
				e.coalesced.Add(1)
			}
		}
		if c.err != nil {
			return nil, c.err
		}
		return reply(c.resp, req, c.hit, start), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// join returns the in-flight call for key, registering a new one when none
// exists; the second return is true for the leader who must spawn the solve.
func (e *Engine) join(key string) (*call, bool) {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	if c, ok := e.flight[key]; ok {
		return c, false
	}
	c := &call{done: make(chan struct{})}
	e.flight[key] = c
	return c, true
}

func (e *Engine) unjoin(key string) {
	e.flightMu.Lock()
	delete(e.flight, key)
	e.flightMu.Unlock()
}

// DefaultTenant is the admission identity of requests that carry no
// X-Tenant header and no request-level tenant field.
const DefaultTenant = "default"

// tenantKey is the context key the HTTP layer stores the X-Tenant header
// under.
type tenantKey struct{}

// WithTenant attaches a tenant identity to the context; the engine's
// admission gate reads it (header beats the request-body field).
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// tenant resolves the admission identity: context (header) first, then the
// request field, then DefaultTenant.
func (e *Engine) tenant(ctx context.Context, reqTenant string) string {
	if t, ok := ctx.Value(tenantKey{}).(string); ok && t != "" {
		return t
	}
	if reqTenant != "" {
		return reqTenant
	}
	return DefaultTenant
}

// checkBudget sheds work whose deadline budget is already spent before it
// touches the admission gate or the pool.
func (e *Engine) checkBudget(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.deadlineShed.Add(1)
			e.shed.Add(1)
		}
		return err
	}
	return nil
}

// admitFor reserves an admission slot for tenant. On success the caller
// must run the returned release exactly once when the work leaves the
// system. Rejections are counted (shed for global overload,
// tenant_rejections for fair-share refusals) and wrapped with a
// Retry-After hint derived from the current queue depth.
func (e *Engine) admitFor(tenant string) (func(), error) {
	if err := e.adm.Acquire(tenant); err != nil {
		var mapped error
		if errors.Is(err, resilience.ErrTenantQuota) {
			e.tenantRejections.Add(1)
			mapped = ErrTenantQuota
		} else {
			e.shed.Add(1)
			mapped = ErrOverloaded
		}
		return nil, e.retryAfter(mapped)
	}
	return func() { e.adm.Release(tenant) }, nil
}

// retryAfter wraps an admission rejection with a backoff hint: one second
// of base plus the time the current queue needs to drain through the pool,
// capped at 30s.
func (e *Engine) retryAfter(err error) error {
	secs := 1 + e.adm.Depth()/int64(cap(e.sem))
	if secs > 30 {
		secs = 30
	}
	return &RetryAfterError{Err: err, After: time.Duration(secs) * time.Second}
}

// degradedNow reports whether sustained pressure has crossed the
// watermark; callers sample it after their own admission so the depth
// includes the work being planned.
func (e *Engine) degradedNow() bool {
	return e.degradeAt > 0 && e.adm.Depth() >= e.degradeAt
}

// spawn runs the solve detached from any caller context: it waits for a
// pool slot, solves, publishes into c, and closes c.done. cleanup (flight
// deregistration) runs after the cache is populated and before the close,
// so no request can observe "not in flight, not in cache" for a solved key.
// The caller must have admitted the work; spawn runs release (the
// admission slot) before the close, so a caller resubmitting on its answer
// finds the slot free.
func (e *Engine) spawn(inst *instance, key string, degraded bool, c *call, release, cleanup func()) {
	go func() {
		e.sem <- struct{}{}
		c.resp, c.err = e.runSolver(inst, key, degraded)
		<-e.sem
		release()
		if cleanup != nil {
			cleanup()
		}
		close(c.done)
	}()
}

// runSolver runs the planner's component executor and finishes the
// response. The executor's stage runner contains solver panics; this
// barrier covers the rest (split, verify, encode) on a detached goroutine
// no HTTP-layer recovery can reach, failing the call instead of the process.
func (e *Engine) runSolver(inst *instance, key string, degraded bool) (resp *SolveResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, resilience.RecoverPanic("engine solve", r)
			e.failures.Add(1)
		}
	}()
	pl, sol, err := plan.Solve(context.Background(), inst.prob, inst.mdl, e.planOptions(inst, degraded), plan.Observer{})
	return e.finish(inst, key, pl, sol, err)
}

// planOptions routes inst as the request asked, on the shared structure
// cache. Each request solves its components on one goroutine: the pool's
// Workers, not the request, bound the engine's solver concurrency.
func (e *Engine) planOptions(inst *instance, degraded bool) plan.Options {
	return plan.Options{Algorithm: inst.algo, K: inst.k, Workers: 1, Structures: e.structs, Degraded: degraded}
}

// finish is the post-solve tail Solve and SolveStream share: count, verify,
// build the response, and cache it unless degraded. Callers reply a copy.
func (e *Engine) finish(inst *instance, key string, pl *plan.Plan, sol *core.Solution, err error) (*SolveResponse, error) {
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.canceled.Add(1)
		} else {
			e.failures.Add(1)
		}
		return nil, planError(err)
	}
	if e.verifyTol > 0 && !pl.Degraded() {
		// Degraded schedules are deliberately suboptimal but still feasible;
		// Verify's energy cross-check is against the solution itself, so it
		// would pass — skipping it just avoids pointless work under overload.
		if err := inst.prob.Verify(sol, e.verifyTol); err != nil {
			e.failures.Add(1)
			return nil, err
		}
	}
	e.solved.Add(1)
	resp := responseFromSolution(sol, pl)
	if resp.Degraded {
		// Overload answers must not poison the cache: the same instance
		// asked for again under normal load deserves the real optimum.
		e.degraded.Add(1)
		return resp, nil
	}
	e.cache.Add(key, resp)
	return resp, nil
}

// reply is one caller's copy of a shared (cached or just-solved) response:
// callers may mutate it, so cached slices are never handed out.
func reply(resp *SolveResponse, req *SolveRequest, hit bool, start time.Time) *SolveResponse {
	out := resp.Clone()
	out.ID = req.ID
	out.CacheHit = hit
	out.ElapsedMS = msSince(start)
	return out
}

// acquire sheds work whose budget is spent, admits it for tenant, and waits
// for a pool slot: the entry of work that runs on the caller's goroutine
// (explains, session replans). On success the caller runs release once,
// when the work leaves the pool.
func (e *Engine) acquire(ctx context.Context, tenant string) (release func(), err error) {
	if err := e.checkBudget(ctx); err != nil {
		return nil, err
	}
	unadmit, err := e.admitFor(tenant)
	if err != nil {
		return nil, err
	}
	select {
	case e.sem <- struct{}{}:
		return func() { <-e.sem; unadmit() }, nil
	case <-ctx.Done():
		unadmit()
		return nil, ctx.Err()
	}
}

// BatchResult pairs one batch entry's response with its error; exactly one
// of the two fields is set.
type BatchResult struct {
	Response *SolveResponse
	Err      error
}

// SolveBatch answers every request concurrently (each bounded by the worker
// pool) and returns per-request outcomes in input order. A failing request
// never fails the batch: its slot carries the error, the rest their
// responses. The context applies to every request individually.
func (e *Engine) SolveBatch(ctx context.Context, reqs []*SolveRequest) []BatchResult {
	return e.solveBatch(reqs, func(*SolveRequest) (context.Context, context.CancelFunc) {
		return ctx, func() {}
	})
}

// solveBatch is the shared fan-out: one goroutine per request, each with a
// context from ctxFor (the HTTP layer derives per-request deadlines from
// timeout_ms; SolveBatch shares one caller context).
func (e *Engine) solveBatch(reqs []*SolveRequest, ctxFor func(*SolveRequest) (context.Context, context.CancelFunc)) []BatchResult {
	results := make([]BatchResult, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req *SolveRequest) {
			defer wg.Done()
			ctx, cancel := ctxFor(req)
			defer cancel()
			resp, err := e.Solve(ctx, req)
			results[i] = BatchResult{Response: resp, Err: err}
		}(i, req)
	}
	wg.Wait()
	return results
}

// Explain compiles a request and runs the planner's analysis without
// solving: the explain-only path behind POST /v1/plan. Analysis does no
// numeric work, but its classification is superlinear (the transitive
// reduction ahead of the linear SP recognizer costs O(n·m/64) word
// operations and n²/8 bytes), so it is admitted and scheduled like a
// solve — backlog shedding plus a worker-pool slot bound the CPU an
// explain-only client can claim, instead of handing every request its
// own unbounded goroutine. The
// context bounds the wait for a pool slot (and honors the caller's
// timeout); once the slot is held, analysis runs to completion — it is
// short, unlike a solve.
func (e *Engine) Explain(ctx context.Context, req *SolveRequest) (*PlanResponse, error) {
	inst, err := req.compile()
	if err != nil {
		return nil, err
	}
	release, err := e.acquire(ctx, e.tenant(ctx, req.Tenant))
	if err != nil {
		return nil, err
	}
	defer release()

	pl, err := plan.Analyze(inst.prob, inst.mdl, e.planOptions(inst, false))
	if err != nil {
		return nil, planError(err)
	}
	return &PlanResponse{
		Tasks:    inst.prob.G.N(),
		Edges:    inst.prob.G.M(),
		Deadline: inst.prob.Deadline,
		Model:    inst.mdl.Kind.String(),
		Plan:     planJSON(pl),
	}, nil
}

// ErrInfeasible re-exports the solver sentinel so transport layers can
// classify without importing core.
var ErrInfeasible = core.ErrInfeasible

// ErrSearchLimit re-exports the exact-solver budget sentinel.
var ErrSearchLimit = core.ErrSearchLimit

// ErrOverloaded is returned when the solve backlog is full across all
// tenants and new work is shed instead of queued (see Options.MaxBacklog).
var ErrOverloaded = errors.New("service: overloaded — solve backlog full, retry later")

// ErrTenantQuota is returned when the requesting tenant is at its
// fair-share admission quota while other tenants are active (see
// Options.TenantWeights and the X-Tenant header).
var ErrTenantQuota = errors.New("service: tenant over fair-share quota, retry later")

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
