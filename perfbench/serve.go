package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/service"
)

// The serve workload: open-loop Poisson arrivals over HTTP against an
// in-process service.NewHandler with default options — the path every
// client takes, where per-request overhead (transport, admission, routing,
// the structure cache, the SP algebra and small interior points) dominates.

// serveShapes is the instance pool in popularity order: rank k is drawn
// with probability ∝ 1/(k+1). The order is fixed, so every seed offers the
// same mix of shapes; the seed draws their weights. Closed-form and SP
// shapes lead; the interior-point shapes (layered, multi, mixed) are small
// and rarer, about a fifth of the traffic, so per-request overhead and not
// large factorizations dominates.
var serveShapes = []shape{
	{"chain", 96}, {"tree", 64}, {"sp", 48}, {"fork", 64}, {"layered", 32}, {"chain", 24},
	{"sp", 96}, {"mixed", 3}, {"tree", 128}, {"join", 32}, {"multi", 2}, {"fork", 24},
	{"sp", 24}, {"chain", 192}, {"tree", 32}, {"layered", 24}, {"fork", 128}, {"sp", 192},
	{"chain", 48}, {"join", 128}, {"layered", 48}, {"tree", 256}, {"mixed", 5}, {"fork", 255},
	{"multi", 4}, {"chain", 256}, {"layered", 64}, {"sp", 128}, {"mixed", 8}, {"tree", 96},
	{"multi", 8}, {"chain", 128},
}

const (
	// serveRate is the open-loop arrival rate, a quarter to a third of
	// the capacity_rps measured on a 2-core x86-64 VM (900–1250/s).
	serveRate = 300.0
	// serveVariants is the number of value-jittered variants per shape.
	serveVariants = 8
	// serveCapacityDecks is the number of decks the capacity phase times;
	// capacity is the median deck's rate, so a stall in one deck does not
	// set it.
	serveCapacityDecks = 4
	// lagBoundMS invalidates an open-loop window whose generator ran this
	// late at p99.
	lagBoundMS = 20.0
	// traceEvery: the traced half re-runs every traceEvery-th request
	// in-process. Re-running each one would double the solver work and
	// push the open loop past capacity.
	traceEvery = 4
)

type serveArrival struct {
	at      time.Duration
	stream  bool
	rank    int
	variant int     // -1: the shape's hot instance, bit for bit
	scale   float64 // weights and deadline scale of a variant
}

// serveDeck is the number of arrivals in one deck of the plan. Each deck
// holds every shape rank, stream and exact-repeat share in its exact
// proportion, dealt in shuffled order: a rare heavy shape drawn twice as
// often would otherwise move the latency percentiles and the capacity by
// more than a regression bound.
const serveDeck = 2000

// serveTraceSeed pins the arrival trace: the arrival times and the order
// in which shapes, streams and exact repeats arrive. Which heavy requests
// happen to arrive close together sets the open-loop p99, and redrawing
// that with every seed moved it by more than a regression bound. The run
// seed draws each arrival's variant and scale, and the weights of every
// instance.
const serveTraceSeed = 2011

// servePlan deals n arrivals (rate 0: all at offset 0, for closed loops) or,
// with rate > 0, the Poisson arrivals of d seconds.
func servePlan(seed int64, rate float64, d time.Duration, n int) []serveArrival {
	trace, vals := rand.New(rand.NewSource(serveTraceSeed)), rand.New(rand.NewSource(seed))
	var deck []serveArrival
	var out []serveArrival
	t := 0.0
	for {
		if rate > 0 {
			t += trace.ExpFloat64() / rate
		}
		at := time.Duration(t * float64(time.Second))
		if (rate > 0 && at >= d) || (rate == 0 && len(out) == n) {
			return out
		}
		if len(deck) == 0 {
			deck = serveDeckOf(trace)
		}
		a := deck[len(deck)-1]
		deck = deck[:len(deck)-1]
		a.at = at
		if a.variant >= 0 {
			a.variant, a.scale = vals.Intn(serveVariants), drawScale(vals)
		}
		out = append(out, a)
	}
}

// serveDeckOf returns one shuffled deck: rank k appears in proportion to
// 1/(k+1); among a rank's entries every fifth is a stream and every fourth
// an exact repeat (variant -1); the rest are jittered variants, which
// servePlan draws.
func serveDeckOf(rng *rand.Rand) []serveArrival {
	z := newZipf(len(serveShapes))
	var deck []serveArrival
	prev := 0.0
	for k, c := range z.cdf {
		count := int(math.Round(c*serveDeck)) - int(math.Round(prev*serveDeck))
		prev = c
		for j := 0; j < count; j++ {
			a := serveArrival{rank: k, stream: j%5 == 0, variant: -1, scale: 1}
			if j%4 != 1 {
				a.variant = 0
			}
			deck = append(deck, a)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

type serveEnv struct {
	hot    []*instance
	vars   [][]*instance
	engine *service.Engine
	srv    *httptest.Server
	client *http.Client
}

func (env *serveEnv) close() {
	env.client.CloseIdleConnections()
	env.srv.Close()
}

// setupServe generates the pool and its references (one shape per core at
// a time), starts the server, and sends every hot instance once so the
// caches hold every shape.
func setupServe(seed int64) (*serveEnv, error) {
	env := &serveEnv{hot: make([]*instance, len(serveShapes)), vars: make([][]*instance, len(serveShapes))}
	err := forEach(len(serveShapes), func(rank int) error {
		s := serveShapes[rank]
		rng := rand.New(rand.NewSource(seed*1009 + int64(rank)))
		g, err := s.build(int64(rank), rng)
		if err != nil {
			return err
		}
		if env.hot[rank], err = newInstance(g, contSpec); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		vars := make([]*instance, serveVariants)
		for v := range vars {
			if vars[v], err = newInstance(jittered(g, rng), contSpec); err != nil {
				return fmt.Errorf("%s: %w", s, err)
			}
		}
		env.vars[rank] = vars
		return nil
	})
	if err != nil {
		return nil, err
	}
	env.engine = service.NewEngine(service.Options{Workers: connections()})
	env.srv = httptest.NewServer(service.NewHandler(env.engine, service.HTTPOptions{}))
	env.client = newClient()
	for rank := range env.hot {
		if o := env.send(serveArrival{rank: rank, variant: -1, scale: 1}, time.Now()); o.err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up %s: %w", serveShapes[rank], o.err)
		}
	}
	return env, nil
}

func (env *serveEnv) instanceOf(a serveArrival) *instance {
	if a.variant < 0 {
		return env.hot[a.rank]
	}
	return env.vars[a.rank][a.variant]
}

// serveOutcome is one request as the client saw it.
type serveOutcome struct {
	stream    bool
	latencyMS float64 // intended send → full response (solve) or terminal event (stream)
	firstMS   float64 // stream: intended send → first event
	rttMS     float64 // actual send → full response
	body      []byte
	resp      *service.SolveResponse
	err       error
}

func (env *serveEnv) send(a serveArrival, intended time.Time) serveOutcome {
	in := env.instanceOf(a)
	o := serveOutcome{stream: a.stream}
	o.body, o.err = json.Marshal(in.request(a.scale))
	if o.err != nil {
		return o
	}
	path := "/v1/solve"
	if a.stream {
		path = "/v1/solve/stream"
	}
	sent := time.Now()
	resp, err := env.client.Post(env.srv.URL+path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return o
	}
	var sr service.SolveResponse
	if a.stream {
		first, err := readStream(resp.Body, &sr)
		if err != nil {
			o.err = err
			return o
		}
		o.firstMS = msBetween(intended, first)
		// Read to EOF so the connection goes back to the pool instead of
		// being closed under an unread body.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			o.err = err
			return o
		}
	} else {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			o.err = err
			return o
		}
		if o.err = json.Unmarshal(raw, &sr); o.err != nil {
			return o
		}
	}
	done := time.Now()
	o.latencyMS, o.rttMS = msBetween(intended, done), msBetween(sent, done)
	o.resp = &sr
	o.err = checkSolve(&sr, in, a.scale)
	return o
}

// readStream consumes an SSE solve stream to its terminal event, decoding
// the result into sr; it returns when the first event arrived.
func readStream(body io.Reader, sr *service.SolveResponse) (time.Time, error) {
	br := bufio.NewReader(body)
	var first time.Time
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return first, fmt.Errorf("stream ended without a terminal event: %w", err)
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		if first.IsZero() {
			first = time.Now()
		}
		var ev service.StreamEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return first, err
		}
		switch ev.Type {
		case service.EventResult:
			return first, json.Unmarshal(ev.Data, sr)
		case service.EventError:
			return first, fmt.Errorf("stream error event: %s", ev.Data)
		}
	}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// servePhase collects one measured phase's outcomes.
type servePhase struct {
	mu       sync.Mutex
	solveMS  []float64
	solveRTT []float64 // actual send → full response of each /v1/solve
	streamMS []float64
	firstMS  []float64
	ops      int
	ipSolves int // interior-point components solved by non-hit answers
	solvers  map[string]int
	comps    int
}

func newServePhase() *servePhase { return &servePhase{solvers: map[string]int{}} }

func (p *servePhase) record(rep *report, o serveOutcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep.attempted++
	p.ops++
	if o.err != nil {
		rep.fail("serve: %v", o.err)
		return
	}
	if o.stream {
		p.streamMS = append(p.streamMS, o.latencyMS)
		p.firstMS = append(p.firstMS, o.firstMS)
	} else {
		p.solveMS = append(p.solveMS, o.latencyMS)
		p.solveRTT = append(p.solveRTT, o.rttMS)
	}
	if o.resp.Plan == nil {
		return
	}
	for _, c := range o.resp.Plan.Components {
		p.solvers[c.Solver]++
		p.comps++
		if !o.resp.CacheHit && c.Solver == "continuous-interior-point" {
			p.ipSolves++
		}
	}
}

// serveTracer re-runs served requests in-process with spans.
type serveTracer struct {
	rec     *recorder
	t       *tally
	structs *plan.StructureCache
	engine  *service.Engine
}

// traceOne re-runs request id through decode, fingerprint, the dispatch
// path (misses only, as the engine did), the streaming pipeline (streams)
// and encode, and splits the client's round trip into layers.
func (tr *serveTracer) traceOne(id int64, o serveOutcome) error {
	rec, t := tr.rec, tr.t
	root := rec.begin(id, -1, "request")
	defer rec.finish(root)
	s := rec.begin(id, root, "service.decode")
	var req service.SolveRequest
	err := json.Unmarshal(o.body, &req)
	t.time("service.decode", rec.finish(s))
	if err != nil {
		return err
	}
	s = rec.begin(id, root, "graph.fingerprint")
	req.Graph.Fingerprint()
	req.Graph.StructuralFingerprint()
	t.time("graph.fingerprint", rec.finish(s))
	mdl, err := req.Model.Build()
	if err != nil {
		return err
	}
	prob, err := core.NewProblem(req.Graph, req.Deadline)
	if err != nil {
		return err
	}
	dispatchMS := 0.0
	if !o.resp.CacheHit {
		if _, dispatchMS, err = dispatchTraced(rec, t, id, root, prob, mdl, tr.structs); err != nil {
			return err
		}
	}
	if o.stream {
		s = rec.begin(id, root, "pipeline.stream")
		start := time.Now()
		var first time.Duration
		em := service.NewStreamEmitter(func(ev service.StreamEvent) error {
			if ev.Type == service.EventComponent && first == 0 {
				first = time.Since(start)
			}
			return nil
		})
		sr, err := tr.engine.SolveStream(context.Background(), &req, em)
		total := rec.finish(s)
		if err != nil {
			return err
		}
		if first > 0 {
			t.time("pipeline.first_component", float64(first)/float64(time.Millisecond))
		}
		if !sr.CacheHit && !o.resp.CacheHit {
			t.time("pipeline.stream_self", total-dispatchMS)
			t.count("stream_rtt", o.rttMS)
		}
	} else {
		t.time("service.engine_self", o.resp.ElapsedMS-dispatchMS)
	}
	t.time("service.transport", o.rttMS-o.resp.ElapsedMS)
	t.count("rtt", o.rttMS)
	s = rec.begin(id, root, "service.encode")
	_, err = json.Marshal(o.resp)
	t.time("service.encode", rec.finish(s))
	return err
}

// runServePhase sends arrivals, due at their offset minus base, open-loop
// and returns the phase and the generator's lateness. tr, when non-nil,
// traces every traceEvery-th answered request.
func (env *serveEnv) runServePhase(rep *report, arrivals []serveArrival, base time.Duration, tr *serveTracer) (*servePhase, []float64) {
	ph := newServePhase()
	lags, err := openLoop(len(arrivals), func(i int) time.Duration { return arrivals[i].at - base },
		func(i int, intended time.Time) func() error {
			o := env.send(arrivals[i], intended)
			ph.record(rep, o)
			if tr == nil || o.err != nil || i%traceEvery != 0 {
				return nil
			}
			return func() error { return tr.traceOne(int64(i), o) }
		})
	if err != nil {
		rep.fail("serve trace: %v", err)
	}
	return ph, lags
}

func serveCensus(rep *report, arrivals []serveArrival, ph *servePhase) {
	seen := map[int]bool{}
	repeats, structRepeats, streams, multi := 0, 0, 0, 0
	for _, a := range arrivals {
		if a.variant < 0 {
			repeats++
		}
		if seen[a.rank] {
			structRepeats++
		}
		seen[a.rank] = true
		if a.stream {
			streams++
		}
		if serveShapes[a.rank].family == "mixed" || serveShapes[a.rank].family == "multi" {
			multi++
		}
	}
	n := float64(len(arrivals))
	rep.census("serve arrivals=%d exact_repeat=%.3f structure_repeat=%.3f multi_component=%.3f stream=%.3f distinct_shapes=%d",
		len(arrivals), float64(repeats)/n, float64(structRepeats)/n, float64(multi)/n, float64(streams)/n, len(seen))
	rep.census("serve component_solver_mix%s", solverMix(ph.solvers, ph.comps))
}

func runServe(cfg config) (*report, error) {
	rep := newReport(cfg.out)
	env, setupS, err := timedSetups(func() (*serveEnv, error) { return setupServe(cfg.seed) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return rep, traceServe(cfg, rep, env, window)
	}

	// Capacity: nproc closed-loop clients sending decks of the same mix;
	// the median deck's completions per second.
	capPlan := servePlan(cfg.seed+1, 0, 0, serveCapacityDecks*serveDeck)
	capPhase := newServePhase()
	var rates []float64
	for d := 0; d < serveCapacityDecks; d++ {
		deck := capPlan[d*serveDeck : (d+1)*serveDeck]
		start := time.Now()
		closedLoop(connections(), len(deck), func(i int) {
			capPhase.record(rep, env.send(deck[i], time.Now()))
		})
		rates = append(rates, float64(len(deck))/time.Since(start).Seconds())
	}
	capacity := median(rates)

	arrivals := servePlan(cfg.seed, serveRate, window, 0)
	var ph *servePhase
	var lags []float64
	for attempt := 0; ; attempt++ {
		w := startStatsWindow(env.engine)
		ph, lags = env.runServePhase(rep, arrivals, 0, nil)
		d := w.end()
		if valid(rep, percentile(lags, 99), d, ph.ops) {
			break
		}
		if attempt == 2 {
			return nil, errors.New("serve: no valid open-loop window in three attempts")
		}
		arrivals = servePlan(cfg.seed+int64(attempt)+2, serveRate, window, 0)
	}
	serveCensus(rep, arrivals, ph)
	rep.set("latency_p50_ms", median(ph.solveMS), "ms", len(ph.solveMS))
	// The p99 is the closed-loop one: the open-loop p99 (solve_p99_ms)
	// adds the queueing behind the heavy interior-point shapes, which grows
	// several times faster than the machine slows, and moved by more than a
	// regression bound between runs of one seed.
	rep.set("latency_p99_ms", percentile(capPhase.solveRTT, 99), "ms", len(capPhase.solveRTT))
	rep.set("throughput_per_s", capacity, "1/s", len(rates))
	rep.set("setup_s", setupS, "s", setupRuns)
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	rep.note("solve_p50_ms", median(ph.solveMS), "ms", len(ph.solveMS))
	rep.note("solve_p90_ms", percentile(ph.solveMS, 90), "ms", len(ph.solveMS))
	rep.note("solve_p99_ms", percentile(ph.solveMS, 99), "ms", len(ph.solveMS))
	rep.note("stream_first_event_p50_ms", median(ph.firstMS), "ms", len(ph.firstMS))
	rep.note("stream_total_p50_ms", median(ph.streamMS), "ms", len(ph.streamMS))
	rep.note("capacity_rps", capacity, "1/s", len(capPlan))
	rep.note("offered_rps", serveRate, "1/s", len(arrivals))
	rep.note("bench.send_lag_p99_ms", percentile(lags, 99), "ms", len(lags))
	rep.note("failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	return rep, nil
}

// valid reports whether an open-loop window counts as a sample: the
// generator kept to its schedule and the engine neither shed nor degraded.
func valid(rep *report, lagP99 float64, d engineDelta, ops int) bool {
	ok := lagP99 <= lagBoundMS && d.shed == 0 && d.degraded == 0
	if !ok {
		rep.census("invalid window: send_lag_p99_ms=%.3f shed=%v degraded=%v ops=%d — window repeated", lagP99, d.shed, d.degraded, ops)
	}
	return ok
}

// traceServe runs the traced variant: the first half of the arrival plan
// untraced (counters, allocations, the overhead baseline), the second half
// with every traceEvery-th answered request re-run in-process with spans.
func traceServe(cfg config, rep *report, env *serveEnv, window time.Duration) error {
	arrivals := servePlan(cfg.seed, serveRate, window, 0)
	a, b := arrivals[:len(arrivals)/2], arrivals[len(arrivals)/2:]
	var phA *servePhase
	var lags []float64
	c := measureHalf(env.engine, func() { phA, lags = env.runServePhase(rep, a, 0, nil) })

	tr := &serveTracer{rec: newRecorder(), t: newTally(), structs: plan.NewStructureCache(256),
		engine: service.NewEngine(service.Options{Workers: connections()})}
	phB, _ := env.runServePhase(rep, b, b[0].at, tr)
	serveCensus(rep, arrivals, phB)

	rep.set("bench.send_lag_p99_ms", percentile(lags, 99), "ms", len(lags))
	rep.set("bench.trace_overhead_ratio", ratio(median(phB.solveMS), median(phA.solveMS)), "ratio", len(phB.solveMS))
	rep.note("solve_p50_ms.untraced_half", median(phA.solveMS), "ms", len(phA.solveMS))
	rep.note("solve_p50_ms.traced_half", median(phB.solveMS), "ms", len(phB.solveMS))
	rep.setHalfLayers(c, phA.ops, float64(phA.ipSolves))
	setServiceShares(rep, tr.t)
	rep.setDispatchLayers(tr.t)
	rep.setAbsent("ratio", "service.store_share", "core.mapped_materialized_ratio",
		"reclaim.clean_ratio", "reclaim.reuse_ratio", "reclaim.warm_seeded_ratio")
	rep.setAbsent("count", "core.mapped_components")
	for _, n := range []string{"pipeline.first_component", "pipeline.stream_self"} {
		rep.note(n+"_ms", median(tr.t.times[n]), "ms", len(tr.t.times[n]))
	}
	return finishTrace(cfg, rep, tr.rec)
}

// setServiceShares reports each service-side layer's share of the traced
// requests' client round trips, and the layer times behind them.
func setServiceShares(rep *report, t *tally) {
	rtt := t.counts["rtt"]
	for _, n := range []string{"service.transport", "service.decode", "service.encode", "service.engine_self"} {
		rep.set(n+"_share", ratio(sum(t.times[n]), rtt), "ratio", len(t.times[n]))
		rep.note(n+"_ms", median(t.times[n]), "ms", len(t.times[n]))
	}
	rep.note("service.engine_self_p99_ms", percentile(t.times["service.engine_self"], 99), "ms", len(t.times["service.engine_self"]))
	rep.set("pipeline.stream_self_share", ratio(sum(t.times["pipeline.stream_self"]), t.counts["stream_rtt"]), "ratio", len(t.times["pipeline.stream_self"]))
	rep.set("graph.fingerprint_share", ratio(sum(t.times["graph.fingerprint"]), rtt), "ratio", len(t.times["graph.fingerprint"]))
	rep.note("graph.fingerprint_ms", median(t.times["graph.fingerprint"]), "ms", len(t.times["graph.fingerprint"]))
}

// solverMix formats each routed solver's share of comps components.
func solverMix(counts map[string]int, comps int) string {
	var b strings.Builder
	for _, s := range solverNames {
		if c := counts[s]; c > 0 {
			fmt.Fprintf(&b, " %s=%.3f", s, float64(c)/float64(comps))
		}
	}
	return b.String()
}

// finishTrace ends a traced run: the symbolic probe, each span name's self
// time, and the spans written out.
func finishTrace(cfg config, rep *report, rec *recorder) error {
	if err := symbolicProbe(rep, cfg.seed); err != nil {
		return err
	}
	printSelfTimes(rep, rec)
	return rec.write(cfg.spansPath)
}

// printSelfTimes prints each span name's summed self time.
func printSelfTimes(rep *report, rec *recorder) {
	self := rec.selfMS()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("self_ms."+n, self[n], "ms", 1)
	}
}
