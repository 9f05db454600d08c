// Package loadgen replays synthetic production traffic against the
// service's HTTP surface and reports tail latency, throughput, and error
// rate in the energybench/v1 schema, so load results gate in CI exactly
// like scenario benchmarks.
//
// The generator is open-loop: the arrival schedule (Poisson with the
// configured mean rate) is precomputed from the seed before the storm
// starts, and every request's latency is measured from its *intended*
// send time, not the moment a worker got around to it. A server that
// stalls therefore sees queued arrivals pile up and the stall priced
// into the tail — the coordinated-omission trap of closed-loop "send,
// wait, repeat" harnesses, which silently stop arriving while the
// server is slow.
//
// Traffic mixes four op classes over a pool of distinct instances with
// zipf-distributed popularity (hot instances exercise the engine's
// result cache and singleflight; the cold tail forces real solves):
//
//   - solve: one POST /v1/solve
//   - batch: one POST /v1/solve/batch of a few instances
//   - stream: one POST /v1/solve/stream consumed to its terminal event;
//     the time to the stream's first event gets its own result row
//     ("load/stream-first-plan") and SLO gate
//   - session: a full reclaiming-session lifecycle — create, open a
//     /watch SSE watcher, stream jittered completion events
//     (durations from the initial solve's speeds, perturbed by
//     workload.Jitter), poll the schedule, then delete; a configurable
//     fraction abandons the session instead (half mid-execution, half
//     finished), exercising the store's eviction paths.
//
// Everything is deterministic under a fixed Config: the plan, the
// instance pool, the jitter, and the abandon decisions all derive from
// Seed. Only the measured latencies vary between runs.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchkit"
	"repro/internal/reclaim"
	"repro/internal/service"
	"repro/internal/workload"
)

// Op classes of the traffic mix.
const (
	OpSolve   = "solve"
	OpSession = "session"
	OpBatch   = "batch"
	// OpStream consumes one POST /v1/solve/stream SSE stream to its
	// terminal event, recording both the whole-stream latency (op row
	// "load/stream") and the time to the first event (row
	// "load/stream-first-plan" — the streaming API's reason to exist).
	OpStream = "stream"
)

// opStreamFirstPlan is the internal sample tag for time-to-first-event;
// it gets its own result row but stays out of the overall aggregate (it
// is a sub-measurement of a stream op, not a request of its own).
const opStreamFirstPlan = "stream-first-plan"

// Mix weighs the op classes; arrivals are assigned proportionally.
// The zero value selects the default 5:3:1:1 solve:session:stream:batch.
type Mix struct {
	Solve   int `json:"solve"`
	Session int `json:"session"`
	Batch   int `json:"batch"`
	Stream  int `json:"stream"`
}

func (m Mix) total() int { return m.Solve + m.Session + m.Batch + m.Stream }

// ParseMix reads the flag form "solve=6,session=3,batch=1". Classes may
// be omitted (weight 0); unknown classes and negative weights are errors.
func ParseMix(s string) (Mix, error) {
	var m Mix
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix entry %q is not class=weight", part)
		}
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(v), "%d", &w); err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q must be a non-negative integer", v)
		}
		switch strings.TrimSpace(k) {
		case OpSolve:
			m.Solve = w
		case OpSession:
			m.Session = w
		case OpBatch:
			m.Batch = w
		case OpStream:
			m.Stream = w
		default:
			return m, fmt.Errorf("loadgen: unknown mix class %q (have %s, %s, %s, %s)", k, OpSolve, OpSession, OpStream, OpBatch)
		}
	}
	if m.total() == 0 {
		return m, fmt.Errorf("loadgen: mix %q has zero total weight", s)
	}
	return m, nil
}

// Config describes one storm. The zero value of every field except
// BaseURL picks a sensible default (see withDefaults).
type Config struct {
	// BaseURL targets a live server ("http://host:port"); required.
	BaseURL string
	// Rate is the mean arrival rate in requests per second (default 100).
	Rate float64
	// Duration is the storm's arrival window (default 5s). Workers run
	// until every arrival completes, so wall time can exceed it.
	Duration time.Duration
	// Concurrency is the worker count (default 16). Workers only bound
	// in-flight requests; arrivals are scheduled independently.
	Concurrency int
	// Mix weighs the op classes (zero value → 6:3:1 solve:session:batch).
	Mix Mix
	// Family and N pick the workload family and size of the instance
	// pool (defaults "layered", 24).
	Family string
	N      int
	// Instances is the pool size (default 16); popularity over the pool
	// is zipf(ZipfS) (default 1.2), so a few instances stay cache-hot.
	Instances int
	ZipfS     float64
	// Seed fixes the plan, pool, jitter, and abandon draws (default 1).
	Seed int64
	// EventBatch is the events-per-POST granularity of session ops
	// (default 8).
	EventBatch int
	// AbandonRate is the fraction of session ops that never delete their
	// session (default 0.25, negative for none): half abandon
	// mid-execution (an idle ghost), half after the last completion (a
	// finished ghost).
	AbandonRate float64
	// JitterValues, when positive, perturbs every arrival's numeric values:
	// each task weight is scaled by a seeded factor in [1−J, 1+J] and the
	// deadline rescaled to the jittered weight sum (a serial speed-1 run
	// still meets it, so every instance stays feasible). The values never
	// repeat but the structure does — zipf-hot shapes stop hitting the
	// engine's instance cache and instead exercise the structure-keyed
	// amortization path (symbolic/plan reuse under value churn). Clamped
	// to [0, 0.9]; 0 (the default) replays bit-identical bodies.
	JitterValues float64
	// Tenants, when above 1, spreads arrivals over that many tenants with
	// zipf(1.5) popularity — tenant-0 floods, the tail are victims — and
	// sends each request with its X-Tenant header. Per-tenant result rows
	// ("load/tenant/<name>") are emitted alongside the op rows. The tenant
	// draw uses its own rng chain, so the op/instance plan for a given
	// Seed is identical with tenancy on or off.
	Tenants int
	// FairnessK, when positive (and Tenants > 1), gates isolation: the
	// storm fails if any tenant's p99 exceeds K× the median tenant p99 —
	// a flooding tenant must pay for its own queueing, not its victims'.
	FairnessK float64
	// MaxRetries bounds the retries of a shed (429) request. Backoff
	// honors the server's Retry-After hint when present (capped at 1s so
	// a storm cannot stall), otherwise 50ms·2^attempt, jittered ×[0.5,1.5).
	// Latency is still measured from the intended arrival, so backoff is
	// priced into the tail. A request still 429 after the last retry
	// counts as shed, separately from hard errors.
	MaxRetries int
	// RetryOn5xx extends the retry policy to transport failures and 5xx —
	// for chaos storms, where injected faults are expected and the
	// question is whether retries converge, not whether errors happen.
	RetryOn5xx bool
	// SLO, when set, is attached to the overall result row and checked;
	// Run reports the violated clauses.
	SLO *benchkit.SLO
	// StreamSLO, when set, is attached to the "load/stream-first-plan"
	// row and checked — the streaming gate ("first plan event p99 < N ms")
	// rides here, separate from the whole-request SLO.
	StreamSLO *benchkit.SLO
	// Client overrides the HTTP client (default: 30s request timeout).
	Client *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("loadgen: BaseURL is required")
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.Rate <= 0 {
		c.Rate = 100
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Mix.total() == 0 {
		c.Mix = Mix{Solve: 5, Session: 3, Stream: 1, Batch: 1}
	}
	if c.Family == "" {
		c.Family = "layered"
	}
	if c.N <= 0 {
		c.N = 24
	}
	if c.Instances <= 0 {
		c.Instances = 16
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if !(c.ZipfS > 1) {
		return c, fmt.Errorf("loadgen: zipf exponent must exceed 1, got %v", c.ZipfS)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EventBatch <= 0 {
		c.EventBatch = 8
	}
	if c.AbandonRate == 0 {
		c.AbandonRate = 0.25
	}
	if c.AbandonRate < 0 {
		c.AbandonRate = 0
	}
	if c.AbandonRate > 1 {
		c.AbandonRate = 1
	}
	if c.JitterValues < 0 {
		c.JitterValues = 0
	}
	if c.JitterValues > 0.9 {
		c.JitterValues = 0.9
	}
	if c.Tenants < 0 {
		c.Tenants = 0
	}
	if c.FairnessK < 0 {
		c.FairnessK = 0
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c, nil
}

// instanceSpec is one prebuilt pool entry: the wire request plus the
// local facts session replay needs (weights → planned durations).
type instanceSpec struct {
	req      service.SolveRequest
	body     []byte
	weights  []float64
	tasks    int
	edges    int
	deadline float64
}

// buildPool materializes the instance pool. Deadline = Σ weights: a
// serial speed-1 run meets it, so every instance is feasible under any
// precedence structure, while the optimum still spreads real slack for
// the reclaiming sessions to work with.
func buildPool(cfg Config) ([]instanceSpec, error) {
	pool := make([]instanceSpec, cfg.Instances)
	for i := range pool {
		g, err := workload.FromSeed(cfg.Family, cfg.N, cfg.Seed+int64(i)*7919, 0.5, 3)
		if err != nil {
			return nil, err
		}
		total := 0.0
		weights := make([]float64, g.N())
		for t := 0; t < g.N(); t++ {
			weights[t] = g.Weight(t)
			total += g.Weight(t)
		}
		req := service.SolveRequest{
			Graph:    g,
			Deadline: total,
			Model:    service.ModelSpec{Kind: "continuous", SMax: 2},
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		pool[i] = instanceSpec{
			req:      req,
			body:     body,
			weights:  weights,
			tasks:    g.N(),
			edges:    len(g.Edges()),
			deadline: total,
		}
	}
	return pool, nil
}

// job is one planned arrival.
type job struct {
	at     time.Duration // intended start, offset from storm start
	op     string
	inst   int
	seed   int64  // per-op randomness (jitter, abandon, batch picks)
	tenant string // empty when tenancy is off
}

// maxPlannedArrivals bounds the precomputed plan so an absurd
// rate×duration cannot allocate without limit.
const maxPlannedArrivals = 1 << 20

// buildPlan precomputes the whole arrival schedule: Poisson arrivals at
// cfg.Rate over cfg.Duration, each tagged with a mix-weighted op class
// and a zipf-popular instance. Deterministic in cfg.Seed.
func buildPlan(cfg Config) []job {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Instances > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Instances-1))
	}
	// Tenant popularity draws from a separate chain so the op/instance
	// plan for a given seed does not shift when tenancy is toggled.
	var tzipf *rand.Zipf
	if cfg.Tenants > 1 {
		trng := rand.New(rand.NewSource(cfg.Seed ^ 0x7e9a_11c3))
		tzipf = rand.NewZipf(trng, 1.5, 1, uint64(cfg.Tenants-1))
	}
	total := cfg.Mix.total()
	var jobs []job
	t := 0.0
	horizon := cfg.Duration.Seconds()
	for len(jobs) < maxPlannedArrivals {
		t += rng.ExpFloat64() / cfg.Rate
		if t >= horizon {
			break
		}
		op := OpSolve
		switch pick := rng.Intn(total); {
		case pick < cfg.Mix.Solve:
			op = OpSolve
		case pick < cfg.Mix.Solve+cfg.Mix.Session:
			op = OpSession
		case pick < cfg.Mix.Solve+cfg.Mix.Session+cfg.Mix.Stream:
			op = OpStream
		default:
			op = OpBatch
		}
		inst := 0
		if zipf != nil {
			inst = int(zipf.Uint64())
		}
		tenant := ""
		if tzipf != nil {
			tenant = fmt.Sprintf("tenant-%d", tzipf.Uint64())
		}
		jobs = append(jobs, job{
			at:     time.Duration(t * float64(time.Second)),
			op:     op,
			inst:   inst,
			seed:   rng.Int63(),
			tenant: tenant,
		})
	}
	return jobs
}

// sample is one measured HTTP request.
type sample struct {
	op     string
	tenant string
	ms     float64
	err    bool // transport failure or 5xx
	shed   bool // final status 429: admission refusal, not a server fault
	status int  // 0 on transport failure
}

// worker executes jobs and collects its own samples lock-free; Run
// merges the collectors after the storm.
type worker struct {
	cfg     *Config
	pool    []instanceSpec
	rng     *rand.Rand // backoff jitter only; the plan never touches it
	tenant  string     // tenant of the job currently executing
	samples []sample
	energy  float64
	retries int
	status  map[int]int
}

// do issues one request and records it: latency from ref (the intended
// arrival time for an op's first request, the actual send time for its
// causally dependent follow-ups), error = transport failure or 5xx.
// Shed requests (429) retry up to MaxRetries with backoff (and 5xx /
// transport failures too under RetryOn5xx); exactly one sample is
// recorded per op regardless of attempts, measured from ref so the
// backoff is priced into the tail. When dst is non-nil and the response
// is 2xx, the body is decoded into it. Returns the final status (0 on
// transport failure) and whether the request succeeded.
func (w *worker) do(ctx context.Context, method, url string, body []byte, ref time.Time, op string, dst any) (int, bool) {
	for attempt := 0; ; attempt++ {
		status, ok, isErr, retryAfter := w.attempt(ctx, method, url, body, dst)
		retriable := status == http.StatusTooManyRequests ||
			(w.cfg.RetryOn5xx && (status == 0 || status >= 500))
		if !retriable || attempt >= w.cfg.MaxRetries || ctx.Err() != nil {
			w.record(op, ref, status, isErr)
			return status, ok
		}
		w.retries++
		w.backoff(ctx, attempt, retryAfter)
	}
}

// attempt is one send. retryAfter carries the server's Retry-After hint
// (0 when absent).
func (w *worker) attempt(ctx context.Context, method, url string, body []byte, dst any) (status int, ok, isErr bool, retryAfter time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, false, true, 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.tenant != "" {
		req.Header.Set("X-Tenant", w.tenant)
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, false, true, 0
	}
	defer resp.Body.Close()
	if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	ok = resp.StatusCode >= 200 && resp.StatusCode < 300
	if ok && dst != nil {
		if derr := json.NewDecoder(resp.Body).Decode(dst); derr != nil {
			// A 2xx with an undecodable body is a server bug: count it.
			return resp.StatusCode, false, true, retryAfter
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, ok, resp.StatusCode >= 500, retryAfter
}

// backoff sleeps before a retry: the server's Retry-After when hinted,
// otherwise 50ms·2^attempt; either way jittered ×[0.5,1.5) and capped at
// 1s so honoring a generous hint cannot stall the storm.
func (w *worker) backoff(ctx context.Context, attempt int, hinted time.Duration) {
	if attempt > 10 {
		attempt = 10
	}
	d := 50 * time.Millisecond << uint(attempt)
	if hinted > 0 {
		d = hinted
	}
	d = time.Duration(float64(d) * (0.5 + w.rng.Float64()))
	if d > time.Second {
		d = time.Second
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (w *worker) record(op string, ref time.Time, status int, isErr bool) {
	w.samples = append(w.samples, sample{
		op:     op,
		tenant: w.tenant,
		ms:     float64(time.Since(ref)) / float64(time.Millisecond),
		err:    isErr,
		shed:   status == http.StatusTooManyRequests,
		status: status,
	})
	w.status[status]++
}

// jitterReq derives one arrival's request from its pool entry. With
// JitterValues off the pool entry is returned as-is; otherwise every
// weight is scaled by a seeded factor in [1−J, 1+J] on a cloned graph and
// the deadline rescales to the jittered weight sum. Returns the request
// and the weights it carries (the session op plans durations off them).
func (w *worker) jitterReq(spec *instanceSpec, seed int64) (service.SolveRequest, []float64) {
	j := w.cfg.JitterValues
	if j <= 0 {
		return spec.req, spec.weights
	}
	rng := rand.New(rand.NewSource(seed))
	jw := make([]float64, len(spec.weights))
	total := 0.0
	for i, wt := range spec.weights {
		jw[i] = wt * (1 + j*(2*rng.Float64()-1))
		total += jw[i]
	}
	req := spec.req
	req.Graph = spec.req.Graph.CloneWithWeights(jw)
	req.Deadline = total
	return req, jw
}

// jitterBody is jitterReq marshaled: the pre-marshaled pool body when
// value jitter is off (bit-identical repeats keep the instance cache
// hot), a fresh per-arrival body otherwise.
func (w *worker) jitterBody(spec *instanceSpec, seed int64) ([]byte, []float64, error) {
	if w.cfg.JitterValues <= 0 {
		return spec.body, spec.weights, nil
	}
	req, jw := w.jitterReq(spec, seed)
	body, err := json.Marshal(&req)
	return body, jw, err
}

func (w *worker) run(ctx context.Context, jb job, intended time.Time) {
	spec := &w.pool[jb.inst]
	base := w.cfg.BaseURL
	w.tenant = jb.tenant
	switch jb.op {
	case OpSolve:
		body, _, err := w.jitterBody(spec, jb.seed)
		if err != nil {
			w.record(OpSolve, intended, 0, true)
			return
		}
		var resp service.SolveResponse
		if _, ok := w.do(ctx, http.MethodPost, base+"/v1/solve", body, intended, OpSolve, &resp); ok {
			w.energy += resp.Energy
		}
	case OpBatch:
		w.runBatch(ctx, jb, intended)
	case OpSession:
		w.runSession(ctx, jb, spec, intended)
	case OpStream:
		w.runStream(ctx, jb, spec, intended)
	}
}

func (w *worker) runBatch(ctx context.Context, jb job, intended time.Time) {
	rng := rand.New(rand.NewSource(jb.seed))
	reqs := make([]service.SolveRequest, 0, 3)
	primary, _ := w.jitterReq(&w.pool[jb.inst], jb.seed)
	reqs = append(reqs, primary)
	for len(reqs) < 3 {
		extra, _ := w.jitterReq(&w.pool[rng.Intn(len(w.pool))], rng.Int63())
		reqs = append(reqs, extra)
	}
	body, err := json.Marshal(service.BatchRequestJSON{Requests: reqs})
	if err != nil {
		w.record(OpBatch, intended, 0, true)
		return
	}
	var resp service.BatchResponseJSON
	if _, ok := w.do(ctx, http.MethodPost, w.cfg.BaseURL+"/v1/solve/batch", body, intended, OpBatch, &resp); ok {
		for _, item := range resp.Results {
			if item.Response != nil {
				w.energy += item.Response.Energy
			}
		}
	}
}

// runSession drives one reclaiming-session lifecycle. Planned durations
// come from the initial solve's speeds (wᵢ/sᵢ), perturbed by a seeded
// Jitter so a fixed fraction of completions deviates and forces residual
// re-solves; the rest replay on-plan and exercise the clean-event fast
// path. Event order is task-index order — every workload family's edges
// point forward, so index order is a topological order.
func (w *worker) runSession(ctx context.Context, jb job, spec *instanceSpec, intended time.Time) {
	body, weights, err := w.jitterBody(spec, jb.seed)
	if err != nil {
		w.record(OpSession, intended, 0, true)
		return
	}
	var create service.SessionResponse
	if _, ok := w.do(ctx, http.MethodPost, w.cfg.BaseURL+"/v1/sessions", body, intended, OpSession, &create); !ok {
		return
	}
	if create.Solve != nil {
		w.energy += create.Solve.Energy
	}
	n := spec.tasks
	durations := make([]float64, n)
	for i := range durations {
		durations[i] = weights[i] // speed-1 fallback
		if create.Solve != nil && len(create.Solve.Speeds) == n && create.Solve.Speeds[i] > 0 {
			durations[i] = weights[i] / create.Solve.Speeds[i]
		}
	}
	factors, err := workload.Jitter{Seed: jb.seed, Rate: 0.4, Early: 0.3, Late: 0.3}.Factors(n)
	if err != nil {
		factors = nil
	}
	rng := rand.New(rand.NewSource(jb.seed))
	limit, deleteAfter := n, true
	switch u := rng.Float64(); {
	case u < w.cfg.AbandonRate/2:
		limit, deleteAfter = n/2, false // walked away mid-execution
	case u < w.cfg.AbandonRate:
		deleteAfter = false // finished but never cleaned up
	}
	sessURL := w.cfg.BaseURL + "/v1/sessions/" + create.SessionID
	// A watcher rides along for the session's life, draining the pushed
	// schedule/component/event stream like a real monitoring client.
	defer w.watch(ctx, sessURL+"/watch")()
	for sent := 0; sent < limit; {
		if ctx.Err() != nil {
			return
		}
		end := min(sent+w.cfg.EventBatch, limit)
		evs := make([]reclaim.CompletionEvent, 0, end-sent)
		for i := sent; i < end; i++ {
			f := 1.0
			if factors != nil {
				f = factors[i]
			}
			evs = append(evs, reclaim.CompletionEvent{Task: i, ActualDuration: durations[i] * f})
		}
		body, merr := json.Marshal(service.SessionEventsRequest{Events: evs})
		if merr != nil {
			w.record(OpSession, time.Now(), 0, true)
			return
		}
		if _, ok := w.do(ctx, http.MethodPost, sessURL+"/events", body, time.Now(), OpSession, nil); !ok {
			return
		}
		sent = end
	}
	w.do(ctx, http.MethodGet, sessURL+"/schedule", nil, time.Now(), OpSession, nil)
	if deleteAfter {
		w.do(ctx, http.MethodDelete, sessURL, nil, time.Now(), OpSession, nil)
	}
}

// watch opens a session's SSE watch, records the open as one OpSession
// sample — an error unless it answers 200 text/event-stream — and drains
// the stream on a goroutine. The returned stop ends the watch and waits
// for the drain. A watch lives as long as its session, so it shares the
// client's Transport but not its Timeout.
func (w *worker) watch(ctx context.Context, url string) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	sent := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		w.record(OpSession, sent, 0, true)
		return cancel
	}
	if w.tenant != "" {
		req.Header.Set("X-Tenant", w.tenant)
	}
	resp, err := (&http.Client{Transport: w.cfg.Client.Transport}).Do(req)
	if err != nil {
		w.record(OpSession, sent, 0, true)
		return cancel
	}
	ok := resp.StatusCode == http.StatusOK && resp.Header.Get("Content-Type") == "text/event-stream"
	w.record(OpSession, sent, resp.StatusCode, !ok)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	return func() {
		cancel()
		<-drained
	}
}

// runStream consumes one streaming solve to its terminal event. Two
// measurements come out of it: the time to the stream's first event
// (recorded against the intended arrival — the metric the streaming API
// exists for) and the whole-stream latency.
func (w *worker) runStream(ctx context.Context, jb job, spec *instanceSpec, intended time.Time) {
	body, _, err := w.jitterBody(spec, jb.seed)
	if err != nil {
		w.record(OpStream, intended, 0, true)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.BaseURL+"/v1/solve/stream", bytes.NewReader(body))
	if err != nil {
		w.record(OpStream, intended, 0, true)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if w.tenant != "" {
		req.Header.Set("X-Tenant", w.tenant)
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		w.record(OpStream, intended, 0, true)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		w.record(OpStream, intended, resp.StatusCode, resp.StatusCode >= 500)
		return
	}
	br := bufio.NewReader(resp.Body)
	first, ok := true, false
	for {
		line, rerr := br.ReadString('\n')
		if rerr != nil {
			break
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if first {
			w.record(opStreamFirstPlan, intended, resp.StatusCode, false)
			first = false
		}
		var ev service.StreamEvent
		if json.Unmarshal([]byte(strings.TrimSuffix(strings.TrimPrefix(line, "data: "), "\n")), &ev) != nil {
			break
		}
		if ev.Type == service.EventResult {
			var out service.SolveResponse
			if json.Unmarshal(ev.Data, &out) == nil {
				w.energy += out.Energy
			}
			ok = true
			break
		}
		if ev.Type == service.EventError {
			break
		}
	}
	w.record(OpStream, intended, resp.StatusCode, !ok)
}

// RunResult is one storm's outcome: aggregate counters, the
// energybench/v1 rows (one overall row carrying the SLO, plus one row
// per op class), and the SLO clauses the overall row broke.
type RunResult struct {
	Wall     time.Duration
	Requests int
	Errors   int
	// Sheds counts requests whose final status was 429 (admission refusal
	// after any retries) — back-pressure working as designed, reported
	// separately from hard errors.
	Sheds int
	// Retries counts extra attempts spent on 429 (and, under RetryOn5xx,
	// 5xx/transport) responses.
	Retries      int
	Energy       float64
	StatusCounts map[int]int
	Rows         []benchkit.Result
	Violations   []string
}

// Report wraps the rows in a schema-tagged energybench/v1 report.
func (r *RunResult) Report() *benchkit.Report { return benchkit.NewReport(r.Rows) }

// Pass is true when no SLO clause was violated.
func (r *RunResult) Pass() bool { return len(r.Violations) == 0 }

// Overall returns the aggregate row (the one carrying the SLO).
func (r *RunResult) Overall() *benchkit.Result {
	for i := range r.Rows {
		if r.Rows[i].Scenario == "load/overall" {
			return &r.Rows[i]
		}
	}
	return nil
}

// Run executes one storm against cfg.BaseURL and blocks until every
// planned arrival has completed (or ctx is canceled — remaining
// arrivals are then dropped unrecorded).
func Run(ctx context.Context, cfg Config) (*RunResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pool, err := buildPool(cfg)
	if err != nil {
		return nil, err
	}
	jobs := buildPlan(cfg)
	if len(jobs) == 0 {
		return nil, fmt.Errorf("loadgen: empty plan — rate %v over %v yields no arrivals", cfg.Rate, cfg.Duration)
	}
	ch := make(chan job, len(jobs))
	for _, jb := range jobs {
		ch <- jb
	}
	close(ch)

	workers := make([]*worker, cfg.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{cfg: &cfg, pool: pool, status: make(map[int]int), rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*104729))}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range ch {
				intended := start.Add(jb.at)
				if d := time.Until(intended); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				if ctx.Err() != nil {
					continue // drain: remaining arrivals dropped
				}
				w.run(ctx, jb, intended)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	res := &RunResult{Wall: wall, StatusCounts: make(map[int]int)}
	byOp := make(map[string][]sample)
	byTenant := make(map[string][]sample)
	for _, w := range workers {
		res.Energy += w.energy
		res.Retries += w.retries
		for st, c := range w.status {
			res.StatusCounts[st] += c
		}
		for _, s := range w.samples {
			byOp[s.op] = append(byOp[s.op], s)
			if s.shed {
				res.Sheds++
			}
			if s.tenant != "" && s.op != opStreamFirstPlan {
				byTenant[s.tenant] = append(byTenant[s.tenant], s)
			}
		}
	}
	all := make([]sample, 0)
	for op, ss := range byOp {
		if op == opStreamFirstPlan {
			continue // sub-measurement, not a request
		}
		all = append(all, ss...)
	}
	overall := buildRow(cfg, pool, "load/overall", all, wall)
	overall.Energy = res.Energy
	overall.SLO = cfg.SLO
	if cfg.SLO != nil {
		overall.SLOViolations = cfg.SLO.Check(&overall)
		res.Violations = overall.SLOViolations
	}
	res.Requests = overall.Requests
	res.Errors = overall.Errors
	res.Rows = []benchkit.Result{overall}
	for _, op := range []string{OpSolve, OpSession, OpStream, opStreamFirstPlan, OpBatch} {
		ss := byOp[op]
		if len(ss) == 0 {
			continue
		}
		row := buildRow(cfg, pool, "load/"+op, ss, wall)
		if op == opStreamFirstPlan && cfg.StreamSLO != nil {
			row.SLO = cfg.StreamSLO
			row.SLOViolations = cfg.StreamSLO.Check(&row)
			res.Violations = append(res.Violations, row.SLOViolations...)
		}
		res.Rows = append(res.Rows, row)
	}
	if len(byTenant) > 0 {
		tenants := make([]string, 0, len(byTenant))
		for tn := range byTenant {
			tenants = append(tenants, tn)
		}
		sort.Strings(tenants)
		rows := make(map[string]benchkit.Result, len(tenants))
		for _, tn := range tenants {
			row := buildRow(cfg, pool, "load/tenant/"+tn, byTenant[tn], wall)
			rows[tn] = row
			res.Rows = append(res.Rows, row)
		}
		res.Violations = append(res.Violations, fairnessViolations(cfg, tenants, rows)...)
	}
	return res, nil
}

// fairnessViolations gates per-tenant isolation: with FairnessK set, no
// tenant's p99 may exceed K× the median tenant p99. The flooding tenant
// queues behind its own share, so under working admission every tenant's
// tail stays within a constant factor of the pack; a starving victim
// shows up as one tenant far above the median.
func fairnessViolations(cfg Config, tenants []string, rows map[string]benchkit.Result) []string {
	if cfg.FairnessK <= 0 || len(tenants) < 2 {
		return nil
	}
	p99s := make([]float64, 0, len(tenants))
	for _, tn := range tenants {
		p99s = append(p99s, rows[tn].P99MS)
	}
	sort.Float64s(p99s)
	median := p99s[len(p99s)/2]
	if median <= 0 {
		return nil
	}
	var out []string
	for _, tn := range tenants {
		if p99 := rows[tn].P99MS; p99 > cfg.FairnessK*median {
			out = append(out, fmt.Sprintf("tenant %s p99 %.1fms exceeds %g× the median tenant p99 %.1fms", tn, p99, cfg.FairnessK, median))
		}
	}
	return out
}

// buildRow aggregates samples into one energybench/v1 result row.
func buildRow(cfg Config, pool []instanceSpec, name string, samples []sample, wall time.Duration) benchkit.Result {
	lat := make([]float64, len(samples))
	errs := 0
	for i, s := range samples {
		lat[i] = s.ms
		if s.err {
			errs++
		}
	}
	sort.Float64s(lat)
	row := benchkit.Result{
		Scenario: name,
		Family:   cfg.Family,
		Path:     "load",
		Model:    "continuous",
		Tasks:    pool[0].tasks,
		Edges:    pool[0].edges,
		Deadline: pool[0].deadline,
		Clients:  cfg.Concurrency,
		Requests: len(samples),
		Errors:   errs,
	}
	if len(lat) == 0 {
		return row
	}
	mean := 0.0
	for _, v := range lat {
		mean += v
	}
	row.MinMS = lat[0]
	row.MaxMS = lat[len(lat)-1]
	row.MeanMS = mean / float64(len(lat))
	row.P50MS = benchkit.Percentile(lat, 0.50)
	row.P90MS = benchkit.Percentile(lat, 0.90)
	row.P99MS = benchkit.Percentile(lat, 0.99)
	row.P999MS = benchkit.Percentile(lat, 0.999)
	if secs := wall.Seconds(); secs > 0 {
		row.Throughput = float64(len(samples)) / secs
	}
	row.ErrorRate = float64(errs) / float64(len(samples))
	return row
}
