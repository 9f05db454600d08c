package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/reclaim"
	"repro/internal/service"
	"repro/internal/workload"
)

// The sessions workload: open-loop reclaim-session lifecycles over HTTP —
// the paper's online reclaiming problem. Each lifecycle creates a session
// (the initial solve), posts its completion events in batches of eight,
// reads the schedule, and deletes the session. Deviating events mutate the
// session and trigger warm residual replans; the schedule reads of one
// lifecycle run beside the event writes of another.

var sessionShapes = []struct {
	shape shape
	spec  service.ModelSpec
}{
	{shape{"layered", 36}, contSpec},
	{shape{"multi", 4}, contSpec},
	{shape{"chain", 24}, vddLadder},
}

const (
	// sessionRate is the open-loop lifecycle arrival rate, about 40% of
	// the lifecycle capacity measured on a 2-core x86-64 VM (~28/s).
	sessionRate = 12.0
	// sessionCapacityDecks is the number of decks the capacity phase
	// times.
	sessionCapacityDecks = 8
	// minEventBatches is the fewest event batches an open-loop window
	// sends, so the event p99 has at least ten samples beyond it.
	minEventBatches = 1000
	// sessionVariants is the number of value-jittered lifecycles per shape.
	sessionVariants = 8
	// eventBatch is the number of completion events per POST.
	eventBatch = 8
)

// eventJitter makes about 40% of completions deviate, all early: early
// completions never make a residual infeasible, so no event may fail and
// every finish stays within the deadline.
func eventJitter(seed int64) workload.Jitter {
	return workload.Jitter{Seed: seed, Rate: 0.4, Early: 0.3}
}

// lifecycle is one session's script and its reference: the events in
// completion order, batched, and the projected total energy (incurred +
// residual) after each batch from an in-process reclaim.Session fed the
// same events.
type lifecycle struct {
	in        *instance
	batches   [][]reclaim.CompletionEvent
	totals    []float64
	deviating int
	events    int
}

func newLifecycle(in *instance, seed int64) (*lifecycle, error) {
	factors, err := eventJitter(seed).Factors(in.g.N())
	if err != nil {
		return nil, err
	}
	events, err := reclaim.Trace(in.g, in.ref.Schedule, factors)
	if err != nil {
		return nil, err
	}
	prob, err := core.NewProblem(in.g, in.deadline)
	if err != nil {
		return nil, err
	}
	sess, err := reclaim.NewSession(prob, in.mdl, in.ref, reclaim.Options{})
	if err != nil {
		return nil, err
	}
	lc := &lifecycle{in: in, events: len(events)}
	for _, f := range factors {
		if f != 1 {
			lc.deviating++
		}
	}
	for lo := 0; lo < len(events); lo += eventBatch {
		batch := events[lo:min(lo+eventBatch, len(events))]
		for _, ev := range batch {
			if _, err := sess.ApplyEvent(ev); err != nil {
				return nil, fmt.Errorf("reference replay: %w", err)
			}
		}
		incurred, residual := sess.Energy()
		lc.batches = append(lc.batches, batch)
		lc.totals = append(lc.totals, incurred+residual)
	}
	return lc, nil
}

// scaledEvents returns batch b with every duration multiplied by c.
func (lc *lifecycle) scaledEvents(b int, c float64) []reclaim.CompletionEvent {
	out := make([]reclaim.CompletionEvent, len(lc.batches[b]))
	for i, ev := range lc.batches[b] {
		out[i] = reclaim.CompletionEvent{Task: ev.Task, ActualDuration: ev.ActualDuration * c}
	}
	return out
}

type sessionArrival struct {
	at    time.Duration
	life  int
	scale float64
}

// sessionPlan deals n lifecycle arrivals: Poisson arrivals at rate, or
// all at offset 0 with rate 0, for closed loops. Like the serve plan it
// deals from shuffled decks that hold every lifecycle once, so seeds differ
// in order and timing, not in mix. Every arrival runs at a fresh scale, so
// its create misses the instance cache and hits the structure cache.
func sessionPlan(seed int64, lives int, rate float64, n int) []sessionArrival {
	rng := rand.New(rand.NewSource(seed))
	var deck []int
	out := make([]sessionArrival, n)
	t := 0.0
	for i := range out {
		if rate > 0 {
			t += rng.ExpFloat64() / rate
		}
		if len(deck) == 0 {
			deck = rng.Perm(lives)
		}
		out[i] = sessionArrival{at: time.Duration(t * float64(time.Second)), life: deck[len(deck)-1], scale: drawScale(rng)}
		deck = deck[:len(deck)-1]
	}
	return out
}

type sessionEnv struct {
	lives  []*lifecycle
	engine *service.Engine
	srv    *httptest.Server
	client *http.Client
}

// openLifecycles is the size of an open-loop plan: whole decks, enough
// for sessionRate over d and for minEventBatches event batches. Whole decks
// fix the plan's mix of lifecycles, and with it its event-batch count.
func (env *sessionEnv) openLifecycles(d time.Duration) int {
	deckBatches := 0
	for _, lc := range env.lives {
		deckBatches += len(lc.batches)
	}
	lives := len(env.lives)
	decks := max((int(sessionRate*d.Seconds())+lives-1)/lives, (minEventBatches+deckBatches-1)/deckBatches)
	return decks * lives
}

func (env *sessionEnv) close() {
	env.client.CloseIdleConnections()
	env.srv.Close()
}

// setupSessions builds the lifecycle scripts, starts the server and runs
// one lifecycle per shape to fill the structure cache. The scripts —
// shapes, weights and completion jitter — are pinned: which tasks deviate,
// and by how much, decides how many replans a batch runs and how large
// they are, and the Vdd batches' replans set the event tail, so letting
// the seed redraw them would move event_p99 by more than a regression
// bound. The seed draws the lifecycles' order, arrival times and scales.
func setupSessions() (*sessionEnv, error) {
	env := &sessionEnv{}
	for k, ss := range sessionShapes {
		rng := rand.New(rand.NewSource(int64(k)))
		g, err := ss.shape.build(int64(k), rng)
		if err != nil {
			return nil, err
		}
		for v := 0; v < sessionVariants; v++ {
			in, err := newInstance(jittered(g, rng), ss.spec)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ss.shape, err)
			}
			lc, err := newLifecycle(in, rng.Int63())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ss.shape, err)
			}
			env.lives = append(env.lives, lc)
		}
	}
	env.engine = service.NewEngine(service.Options{Workers: connections()})
	env.srv = httptest.NewServer(service.NewHandler(env.engine, service.HTTPOptions{}))
	env.client = newClient()
	// Warm-up: one lifecycle per shape fills the structure cache.
	for k := range sessionShapes {
		o := env.runLifecycle(sessionArrival{life: k * sessionVariants, scale: 1}, time.Now())
		if o.err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return env, nil
}

// call is one HTTP exchange of a lifecycle.
type call struct {
	op        string // create, events, schedule, delete
	latencyMS float64
	rttMS     float64
	serverMS  float64 // the server's own elapsed_ms, where reported
	body      []byte
}

type lifecycleOutcome struct {
	calls      []call
	createResp *service.SessionResponse
	eventResps []*service.SessionEventsResponse
	attempted  int
	err        error
}

// do sends one request and decodes a 2xx answer into dst.
// It returns the round trip in milliseconds.
func (env *sessionEnv) do(method, path string, body []byte, dst any) (float64, error) {
	req, err := http.NewRequest(method, env.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return 0, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return msBetween(sent, time.Now()), json.Unmarshal(raw, dst)
}

// runLifecycle drives one session over HTTP and checks every answer. The
// create is timed from its intended arrival; later calls from their send.
func (env *sessionEnv) runLifecycle(a sessionArrival, intended time.Time) lifecycleOutcome {
	lc := env.lives[a.life]
	in := lc.in
	c := a.scale
	var o lifecycleOutcome
	fail := func(err error) lifecycleOutcome { o.err = err; return o }

	body, err := json.Marshal(service.SessionRequest{SolveRequest: *in.request(c)})
	if err != nil {
		return fail(err)
	}
	o.attempted++
	var created service.SessionResponse
	rtt, err := env.do(http.MethodPost, "/v1/sessions", body, &created)
	if err != nil {
		return fail(err)
	}
	o.calls = append(o.calls, call{op: "create", latencyMS: msBetween(intended, time.Now()), rttMS: rtt, serverMS: created.Solve.ElapsedMS, body: body})
	o.createResp = &created
	if err := checkSolve(created.Solve, in, c); err != nil {
		return fail(fmt.Errorf("create: %w", err))
	}
	path := "/v1/sessions/" + created.SessionID
	for b := range lc.batches {
		body, err := json.Marshal(service.SessionEventsRequest{Events: lc.scaledEvents(b, c)})
		if err != nil {
			return fail(err)
		}
		o.attempted++
		var er service.SessionEventsResponse
		rtt, err := env.do(http.MethodPost, path+"/events", body, &er)
		if err != nil {
			return fail(err)
		}
		o.calls = append(o.calls, call{op: "events", latencyMS: rtt, rttMS: rtt, serverMS: er.ElapsedMS, body: body})
		o.eventResps = append(o.eventResps, &er)
		if err := checkEvents(&er, lc.totals[b]*c); err != nil {
			return fail(fmt.Errorf("events batch %d: %w", b, err))
		}
	}
	o.attempted++
	var sched service.SessionScheduleResponse
	if rtt, err = env.do(http.MethodGet, path+"/schedule", nil, &sched); err != nil {
		return fail(err)
	}
	o.calls = append(o.calls, call{op: "schedule", latencyMS: rtt, rttMS: rtt})
	if err := checkFinalSchedule(&sched, lc.totals[len(lc.totals)-1]*c, in.deadline*c); err != nil {
		return fail(fmt.Errorf("schedule: %w", err))
	}
	o.attempted++
	var deleted map[string]string
	if rtt, err = env.do(http.MethodDelete, path, nil, &deleted); err != nil {
		return fail(err)
	}
	o.calls = append(o.calls, call{op: "delete", latencyMS: rtt, rttMS: rtt})
	return o
}

func checkEvents(er *service.SessionEventsResponse, want float64) error {
	for _, r := range er.Results {
		if r.Error != nil {
			return fmt.Errorf("event rejected: %s: %s", r.Error.Code, r.Error.Message)
		}
	}
	if er.Infeasible {
		return errors.New("session reports an infeasible residual")
	}
	return checkEnergy(er.IncurredEnergy+er.ResidualEnergy, want)
}

// checkFinalSchedule checks a finished session's schedule: every task
// completed by the deadline, at the reference energy. Completed tasks run
// at their actual effective speeds, which the solver does not choose, so
// speeds are checked on the initial solve instead.
func checkFinalSchedule(s *service.SessionScheduleResponse, want, deadline float64) error {
	if s.Remaining != 0 {
		return fmt.Errorf("%d tasks remain after every event", s.Remaining)
	}
	if s.Makespan > deadline*(1+feasTol) {
		return fmt.Errorf("makespan %.9g exceeds the deadline %.9g", s.Makespan, deadline)
	}
	return checkEnergy(s.TotalEnergy, want)
}

// sessionPhase collects one measured phase's calls.
type sessionPhase struct {
	mu       sync.Mutex
	ms       samples // op → latencies
	ops      int
	ipSolves float64 // interior-point solves the phase asked of the engine
	solvers  map[string]int
	comps    int
}

func newSessionPhase() *sessionPhase {
	return &sessionPhase{ms: samples{}, solvers: map[string]int{}}
}

func (p *sessionPhase) record(rep *report, env *sessionEnv, a sessionArrival, o lifecycleOutcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep.attempted += o.attempted
	p.ops += o.attempted
	if o.err != nil {
		rep.fail("sessions: %v", o.err)
	}
	shape := sessionShapes[a.life/sessionVariants].shape.String()
	for _, c := range o.calls {
		p.ms.add(c.op, c.latencyMS)
		p.ms.add(c.op+"."+shape, c.latencyMS)
	}
	if o.createResp == nil || o.createResp.Solve.Plan == nil {
		return
	}
	continuous := env.lives[a.life].in.mdl.Kind == model.Continuous
	for _, c := range o.createResp.Solve.Plan.Components {
		p.solvers[c.Solver]++
		p.comps++
		if !o.createResp.Solve.CacheHit && c.Solver == "continuous-interior-point" {
			p.ipSolves++
		}
	}
	if continuous {
		// Residual components carry release times, so every continuous
		// re-solve runs the interior point.
		for _, er := range o.eventResps {
			for _, r := range er.Results {
				if r.Result != nil {
					p.ipSolves += float64(r.Result.Resolved)
				}
			}
		}
	}
}

// sessionTracer re-runs lifecycles in-process with spans.
type sessionTracer struct {
	rec     *recorder
	t       *tally
	structs *plan.StructureCache
	store   *service.SessionStore
	stats   reclaim.Stats
	mu      sync.Mutex
}

// traceOne re-runs lifecycle id: the store calls the handlers make
// (Create, Events per batch, Schedule, Delete), the dispatch of the
// initial solve, and the reclaim layer's ApplyEvent per event; and splits
// the HTTP exchanges' round trips into layers.
func (tr *sessionTracer) traceOne(id int64, lc *lifecycle, c float64, o lifecycleOutcome) error {
	rec, t := tr.rec, tr.t
	root := rec.begin(id, -1, "lifecycle")
	defer rec.finish(root)
	ctx := context.Background()
	in := lc.in
	var req service.SessionRequest
	s := rec.begin(id, root, "service.decode")
	err := json.Unmarshal(o.calls[0].body, &req)
	t.time("service.decode", rec.finish(s))
	if err != nil {
		return err
	}
	s = rec.begin(id, root, "graph.fingerprint")
	req.Graph.Fingerprint()
	req.Graph.StructuralFingerprint()
	t.time("graph.fingerprint", rec.finish(s))
	storeMS := 0.0
	s = rec.begin(id, root, "service.store_create")
	created, err := tr.store.Create(ctx, &req)
	ms := rec.finish(s)
	if err != nil {
		return err
	}
	t.time("service.store_create", ms)
	storeMS += ms
	for b := range lc.batches {
		s = rec.begin(id, root, "service.store_events")
		_, err := tr.store.Events(ctx, created.SessionID, lc.scaledEvents(b, c))
		ms := rec.finish(s)
		if err != nil {
			return err
		}
		t.time("service.store_events", ms)
		storeMS += ms
	}
	s = rec.begin(id, root, "service.store_schedule")
	_, err = tr.store.Schedule(created.SessionID)
	ms = rec.finish(s)
	if err != nil {
		return err
	}
	t.time("service.store_schedule", ms)
	storeMS += ms
	if err := tr.store.Delete(created.SessionID); err != nil {
		return err
	}
	t.count("store", storeMS)

	// The initial solve through the dispatch path, then the reclaim layer.
	g, d := in.scaled(c)
	prob, err := core.NewProblem(g, d)
	if err != nil {
		return err
	}
	dispatchMS := 0.0
	sol, dms, err := dispatchTraced(rec, t, id, root, prob, in.mdl, tr.structs)
	if err != nil {
		return err
	}
	if !o.createResp.Solve.CacheHit {
		dispatchMS = dms
	}
	sess, err := reclaim.NewSession(prob, in.mdl, sol, reclaim.Options{Structures: tr.structs})
	if err != nil {
		return err
	}
	defer sess.Close()
	for b := range lc.batches {
		for _, ev := range lc.scaledEvents(b, c) {
			s = rec.begin(id, root, "reclaim.apply_event")
			res, err := sess.ApplyEvent(ev)
			ms := rec.finish(s)
			if err != nil {
				return err
			}
			if res.Clean {
				t.time("reclaim.apply_event.clean", ms)
			} else {
				t.time("reclaim.apply_event.replan", ms)
			}
		}
	}
	st := sess.Stats()
	tr.mu.Lock()
	tr.stats.Events += st.Events
	tr.stats.Clean += st.Clean
	tr.stats.ComponentsResolved += st.ComponentsResolved
	tr.stats.ComponentsReused += st.ComponentsReused
	tr.stats.WarmSeeded += st.WarmSeeded
	tr.mu.Unlock()

	// Layer split of the HTTP exchanges.
	for i, call := range o.calls {
		t.count("rtt", call.rttMS)
		switch call.op {
		case "create":
			t.time("service.engine_self", call.serverMS-dispatchMS)
			t.time("service.transport", call.rttMS-call.serverMS)
		case "events":
			t.time("service.transport", call.rttMS-call.serverMS)
			var evReq service.SessionEventsRequest
			s = rec.begin(id, root, "service.decode")
			err := json.Unmarshal(call.body, &evReq)
			t.time("service.decode", rec.finish(s))
			if err != nil {
				return err
			}
			s = rec.begin(id, root, "service.encode")
			_, err = json.Marshal(o.eventResps[i-1])
			t.time("service.encode", rec.finish(s))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// runSessionPhase runs arrivals, due at their offset minus base, open-loop
// and returns the phase and the generator's lateness. tr, when non-nil,
// traces every traceEvery-th lifecycle that completed.
func (env *sessionEnv) runSessionPhase(rep *report, arrivals []sessionArrival, base time.Duration, tr *sessionTracer) (*sessionPhase, []float64) {
	ph := newSessionPhase()
	lags, err := openLoop(len(arrivals), func(i int) time.Duration { return arrivals[i].at - base },
		func(i int, intended time.Time) func() error {
			a := arrivals[i]
			o := env.runLifecycle(a, intended)
			ph.record(rep, env, a, o)
			if tr == nil || o.err != nil || i%traceEvery != 0 {
				return nil
			}
			return func() error { return tr.traceOne(int64(i), env.lives[a.life], a.scale, o) }
		})
	if err != nil {
		rep.fail("sessions trace: %v", err)
	}
	return ph, lags
}

func sessionCensus(rep *report, env *sessionEnv, arrivals []sessionArrival, ph *sessionPhase) {
	deviating, events, multi := 0, 0, 0
	for _, a := range arrivals {
		lc := env.lives[a.life]
		deviating += lc.deviating
		events += lc.events
		if lc.in.comps > 1 {
			multi++
		}
	}
	rep.census("sessions lifecycles=%d events=%d deviating_events=%.3f multi_component=%.3f exact_repeat=0 lifecycles_per_shape=%d",
		len(arrivals), events, ratio(float64(deviating), float64(events)), ratio(float64(multi), float64(len(arrivals))), sessionVariants)
	rep.census("sessions create_component_solver_mix%s", solverMix(ph.solvers, ph.comps))
}

func runSessions(cfg config) (*report, error) {
	rep := newReport(cfg.out)
	env, setupS, err := timedSetups(func() (*sessionEnv, error) { return setupSessions() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return rep, traceSessions(cfg, rep, env, window)
	}

	// Capacity: nproc closed-loop clients running decks of lifecycles;
	// the median deck's event batches per second.
	capPlan := sessionPlan(cfg.seed+1, len(env.lives), 0, sessionCapacityDecks*len(env.lives))
	capPhase := newSessionPhase()
	var rates []float64
	for d := 0; d < sessionCapacityDecks; d++ {
		deck := capPlan[d*len(env.lives) : (d+1)*len(env.lives)]
		batches := 0
		start := time.Now()
		closedLoop(connections(), len(deck), func(i int) {
			capPhase.record(rep, env, deck[i], env.runLifecycle(deck[i], time.Now()))
		})
		for _, a := range deck {
			batches += len(env.lives[a.life].batches)
		}
		rates = append(rates, float64(batches)/time.Since(start).Seconds())
	}
	capacity := median(rates)

	n := env.openLifecycles(window)
	arrivals := sessionPlan(cfg.seed, len(env.lives), sessionRate, n)
	var ph *sessionPhase
	var lags []float64
	for attempt := 0; ; attempt++ {
		w := startStatsWindow(env.engine)
		ph, lags = env.runSessionPhase(rep, arrivals, 0, nil)
		if valid(rep, percentile(lags, 99), w.end(), ph.ops) {
			break
		}
		if attempt == 2 {
			return nil, errors.New("sessions: no valid open-loop window in three attempts")
		}
		arrivals = sessionPlan(cfg.seed+int64(attempt)+2, len(env.lives), sessionRate, n)
	}
	sessionCensus(rep, env, arrivals, ph)
	ev := ph.ms["events"]
	rep.set("latency_p50_ms", median(ev), "ms", len(ev))
	rep.set("latency_p99_ms", percentile(ev, 99), "ms", len(ev))
	rep.set("throughput_per_s", capacity, "1/s", len(rates))
	rep.set("setup_s", setupS, "s", setupRuns)
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	rep.note("event_p50_ms", median(ev), "ms", len(ev))
	rep.note("event_p99_ms", percentile(ev, 99), "ms", len(ev))
	for _, ss := range sessionShapes {
		e := ph.ms["events."+ss.shape.String()]
		rep.note("event_p50_ms."+ss.shape.String(), median(e), "ms", len(e))
		rep.note("event_p99_ms."+ss.shape.String(), percentile(e, 99), "ms", len(e))
	}
	rep.note("session_create_p50_ms", median(ph.ms["create"]), "ms", len(ph.ms["create"]))
	rep.note("schedule_read_p50_ms", median(ph.ms["schedule"]), "ms", len(ph.ms["schedule"]))
	rep.note("capacity_event_batches_per_s", capacity, "1/s", len(rates))
	rep.note("offered_lifecycles_per_s", sessionRate, "1/s", len(arrivals))
	rep.note("bench.send_lag_p99_ms", percentile(lags, 99), "ms", len(lags))
	rep.note("failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	return rep, nil
}

// traceSessions runs the traced variant: the first half of the lifecycle
// plan untraced, the second with every traceEvery-th lifecycle re-run
// in-process with spans.
func traceSessions(cfg config, rep *report, env *sessionEnv, window time.Duration) error {
	arrivals := sessionPlan(cfg.seed, len(env.lives), sessionRate, env.openLifecycles(window))
	a, b := arrivals[:len(arrivals)/2], arrivals[len(arrivals)/2:]
	var phA *sessionPhase
	var lags []float64
	c := measureHalf(env.engine, func() { phA, lags = env.runSessionPhase(rep, a, 0, nil) })

	tr := &sessionTracer{rec: newRecorder(), t: newTally(), structs: plan.NewStructureCache(256),
		store: service.NewSessionStore(service.NewEngine(service.Options{Workers: connections()}), service.SessionConfig{})}
	phB, _ := env.runSessionPhase(rep, b, b[0].at, tr)
	sessionCensus(rep, env, arrivals, phB)

	rep.set("bench.send_lag_p99_ms", percentile(lags, 99), "ms", len(lags))
	rep.set("bench.trace_overhead_ratio", ratio(median(phB.ms["events"]), median(phA.ms["events"])), "ratio", len(phB.ms["events"]))
	rep.setHalfLayers(c, phA.ops, phA.ipSolves)

	t := tr.t
	setServiceShares(rep, t)
	rep.set("service.store_share", ratio(t.counts["store"], t.counts["rtt"]), "ratio", len(t.times["service.store_events"]))
	for _, n := range []string{"service.store_create", "service.store_events", "service.store_schedule",
		"reclaim.apply_event.clean", "reclaim.apply_event.replan"} {
		rep.note(n+"_ms", median(t.times[n]), "ms", len(t.times[n]))
	}
	rep.note("service.store_events_p99_ms", percentile(t.times["service.store_events"], 99), "ms", len(t.times["service.store_events"]))
	st := tr.stats
	rep.set("reclaim.clean_ratio", ratio(float64(st.Clean), float64(st.Events)), "ratio", st.Events)
	rep.set("reclaim.reuse_ratio", ratio(float64(st.ComponentsReused), float64(st.ComponentsReused+st.ComponentsResolved)), "ratio", st.ComponentsReused+st.ComponentsResolved)
	rep.set("reclaim.warm_seeded_ratio", ratio(float64(st.WarmSeeded), float64(st.ComponentsResolved)), "ratio", st.ComponentsResolved)
	rep.setDispatchLayers(t)
	rep.setAbsent("ratio", "core.mapped_materialized_ratio")
	rep.setAbsent("count", "core.mapped_components")
	return finishTrace(cfg, rep, tr.rec)
}
