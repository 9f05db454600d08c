package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/reclaim"
	"repro/internal/resilience"
)

// postTenant posts body with an X-Tenant header.
func postTenant(t *testing.T, url, tenant, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp, []byte(sb.String())
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSolverPanicYields500 regresses the process crash: a panic inside a
// solver used to escape on the engine's detached goroutine and kill the
// whole server. Now it must fail exactly the request it hit with a 500
// while every concurrent request completes normally.
func TestSolverPanicYields500(t *testing.T) {
	resilience.Arm(resilience.NewFaults(7, map[resilience.Site]resilience.SiteFaults{
		resilience.SiteSolver: {PanicRate: 1, Times: 1},
	}))
	defer resilience.Disarm()
	before := resilience.PanicsRecovered()

	srv, e := newTestServer(t, Options{Workers: 4, CacheSize: -1}, HTTPOptions{})
	const n = 6
	type outcome struct {
		status int
		body   []byte
	}
	out := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"graph":{"tasks":[{"weight":3},{"weight":5}],"edges":[[0,1]]},"deadline":%g,"model":{"kind":"continuous","smax":2},"no_cache":true}`, 4.0+float64(i)*0.5)
			resp, b := postJSON(t, srv.URL+"/v1/solve", body)
			out <- outcome{resp.StatusCode, b}
		}(i)
	}
	wg.Wait()
	close(out)

	var fails, oks int
	for o := range out {
		switch o.status {
		case http.StatusOK:
			oks++
		case http.StatusInternalServerError:
			fails++
			var env errorEnvelope
			if err := json.Unmarshal(o.body, &env); err != nil {
				t.Fatalf("decoding 500 body %s: %v", o.body, err)
			}
			if env.Error.Code != string(CodeInternal) {
				t.Fatalf("panic response code = %q, want %q (%s)", env.Error.Code, CodeInternal, o.body)
			}
		default:
			t.Fatalf("unexpected status %d: %s", o.status, o.body)
		}
	}
	if fails != 1 || oks != n-1 {
		t.Fatalf("got %d failures and %d successes, want exactly 1 and %d", fails, oks, n-1)
	}
	if got := resilience.PanicsRecovered() - before; got == 0 {
		t.Fatal("panics_recovered did not move")
	}
	if st := e.Stats(); st.PanicsRecovered == 0 {
		t.Fatalf("stats do not surface panics_recovered: %+v", st)
	}
	waitFor(t, "admission drain", func() bool { return e.adm.Depth() == 0 })
}

// TestSessionReplanSolverPanic pins the solver fault site on session
// replans: a panic there fails the deviating event with a classified
// internal error while the completion stays recorded, the next deviating
// event replans normally, and closing the session releases every
// structure pin.
func TestSessionReplanSolverPanic(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	st := NewSessionStore(e, SessionConfig{})
	sess := mkSession(t, st, fiveChainBody)

	resilience.Arm(resilience.NewFaults(3, map[resilience.Site]resilience.SiteFaults{
		resilience.SiteSolver: {PanicRate: 1, Times: 1},
	}))
	defer resilience.Disarm()
	// The optimum runs every task for 2.5; both events finish early.
	out, err := st.Events(context.Background(), sess.SessionID, []reclaim.CompletionEvent{
		{Task: 0, ActualDuration: 2.0},
		{Task: 1, ActualDuration: 2.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	failed, replanned := out.Results[0], out.Results[1]
	if failed.Error == nil || failed.Error.Code != string(CodeInternal) {
		t.Fatalf("panicking replan: error %+v, want code %q", failed.Error, CodeInternal)
	}
	if failed.Result == nil || failed.Result.Remaining != 4 {
		t.Fatalf("panicking replan lost its completion: %+v", failed.Result)
	}
	if replanned.Error != nil || replanned.Result == nil || replanned.Result.Resolved == 0 {
		t.Fatalf("next deviating event did not replan: %+v / %+v", replanned.Result, replanned.Error)
	}
	if out.Remaining != 3 {
		t.Fatalf("remaining %d, want 3", out.Remaining)
	}
	if err := st.Delete(sess.SessionID); err != nil {
		t.Fatal(err)
	}
	if n := e.Structures().Pinned(); n != 0 {
		t.Fatalf("%d structure pins leaked", n)
	}
}

// degradedNRequest is the classic non-series-parallel witness (a→c, a→d,
// b→d), unit weights, D=2: W=4, CPW=2, so degraded mode runs everything
// at speed CPW/D = 1 for energy 4 with an a-priori bound of W/CPW = 2.
func degradedNRequest() *SolveRequest {
	g := graph.New()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	d := g.AddTask("d", 1)
	g.MustAddEdge(a, c)
	g.MustAddEdge(a, d)
	g.MustAddEdge(b, d)
	return &SolveRequest{
		Graph:    g,
		Deadline: 2,
		Model:    ModelSpec{Kind: "continuous", SMax: 10},
	}
}

// TestDegradedResponse pins degraded-mode semantics: past the watermark an
// interior-point component reroutes to the bounded uniform heuristic, the
// response says so, carries the W/CPW bound, and is never cached; closed
// forms keep answering exactly even under the same pressure.
func TestDegradedResponse(t *testing.T) {
	// MaxBacklog 4 × watermark 0.25 → degradeAt 1: every admitted solve
	// sees depth ≥ 1 (itself), so the engine is permanently degraded.
	e := NewEngine(Options{Workers: 1, MaxBacklog: 4, DegradeWatermark: 0.25, VerifyTol: 1e-9})
	ctx := context.Background()

	resp, err := e.Solve(ctx, degradedNRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("response not marked degraded: %+v", resp)
	}
	if resp.Algorithm != "degraded-uniform" {
		t.Fatalf("algorithm = %q, want degraded-uniform", resp.Algorithm)
	}
	if math.Abs(resp.BoundFactor-2) > 1e-12 {
		t.Fatalf("bound factor = %v, want 2 (W/CPW = 4/2)", resp.BoundFactor)
	}
	if math.Abs(resp.Energy-4) > 1e-9 || math.Abs(resp.Makespan-2) > 1e-9 {
		t.Fatalf("energy %v makespan %v, want 4 and 2", resp.Energy, resp.Makespan)
	}
	if resp.Plan == nil || !resp.Plan.Degraded {
		t.Fatalf("plan does not carry the degraded mark: %+v", resp.Plan)
	}

	// Degraded answers must not poison the cache: the replay is a miss and
	// degrades again.
	resp2, err := e.Solve(ctx, degradedNRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp2.CacheHit || !resp2.Degraded {
		t.Fatalf("degraded response was cached: hit=%v degraded=%v", resp2.CacheHit, resp2.Degraded)
	}
	if st := e.Stats(); st.Degraded != 2 {
		t.Fatalf("degraded counter = %d, want 2", st.Degraded)
	}

	// A chain routes to the closed form, which is not in the degradable
	// set: exact answer, cached, even while the engine is shedding quality.
	cresp, err := e.Solve(ctx, chainRequest())
	if err != nil {
		t.Fatal(err)
	}
	if cresp.Degraded || math.Abs(cresp.Energy-32) > 1e-6 {
		t.Fatalf("chain degraded=%v energy=%v, want exact 32", cresp.Degraded, cresp.Energy)
	}
	cresp2, err := e.Solve(ctx, chainRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !cresp2.CacheHit {
		t.Fatal("exact chain response was not cached")
	}

	// The a-priori bound holds against the true optimum from a calm engine.
	calm := NewEngine(Options{VerifyTol: 1e-9})
	opt, err := calm.Solve(ctx, degradedNRequest())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Degraded {
		t.Fatal("calm engine degraded")
	}
	// The interior point answers within its own tolerance, so on this
	// symmetric instance (where uniform IS optimal) it may land a hair
	// above the degraded energy; compare with a matching slack.
	if resp.Energy < opt.Energy-1e-6 || resp.Energy > resp.BoundFactor*opt.Energy+1e-6 {
		t.Fatalf("degraded energy %v outside [OPT, %g·OPT] with OPT %v", resp.Energy, resp.BoundFactor, opt.Energy)
	}
}

// TestTenantQuotaHTTP walks the admission gate over HTTP: a tenant at its
// fair share gets tenant_quota, a full gate gets overloaded, both as 429
// with a Retry-After header and a retry_after_ms hint, and the flooding
// tenant never starves the other out of its share.
func TestTenantQuotaHTTP(t *testing.T) {
	srv, e := newTestServer(t, Options{Workers: 1, MaxBacklog: 4, CacheSize: -1}, HTTPOptions{})
	// Saturate the pool: admitted work parks on the sem and holds its
	// admission slot, making queue depths deterministic.
	e.sem <- struct{}{}

	body := func(i int) string {
		return fmt.Sprintf(`{"graph":{"tasks":[{"weight":3},{"weight":5}],"edges":[[0,1]]},"deadline":%g,"model":{"kind":"continuous","smax":2},"no_cache":true}`, 4.0+float64(i)*0.25)
	}
	inflight := func(tenant string) int64 { return e.adm.InFlight()[tenant] }

	var wg sync.WaitGroup
	codes := make(chan int, 4)
	send := func(tenant string, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postTenant(t, srv.URL+"/v1/solve", tenant, body(i))
			codes <- resp.StatusCode
		}()
	}

	// One B in flight makes B active: A's fair share of the 4-slot gate
	// becomes ⌊4·1/2⌋ = 2.
	send("tenant-b", 0)
	waitFor(t, "tenant-b in flight", func() bool { return inflight("tenant-b") == 1 })
	send("tenant-a", 1)
	send("tenant-a", 2)
	waitFor(t, "tenant-a flood", func() bool { return inflight("tenant-a") == 2 })

	// Third A request: over fair share while capacity remains → tenant_quota.
	resp, b := postTenant(t, srv.URL+"/v1/solve", "tenant-a", body(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flooding tenant got %d: %s", resp.StatusCode, b)
	}
	var env errorEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != string(CodeTenantQuota) {
		t.Fatalf("code = %q, want tenant_quota (%s)", env.Error.Code, b)
	}
	if env.Error.RetryAfterMS < 1000 {
		t.Fatalf("retry_after_ms = %d, want ≥ 1000", env.Error.RetryAfterMS)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want whole seconds ≥ 1", ra)
	}

	// The victim tenant still gets its share despite the flood.
	send("tenant-b", 4)
	waitFor(t, "tenant-b second slot", func() bool { return inflight("tenant-b") == 2 })

	// Gate full (4/4): everyone is refused globally, even a new tenant.
	resp, b = postTenant(t, srv.URL+"/v1/solve", "tenant-c", body(5))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full gate got %d: %s", resp.StatusCode, b)
	}
	env = errorEnvelope{}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != string(CodeOverloaded) {
		t.Fatalf("code = %q, want overloaded (%s)", env.Error.Code, b)
	}

	// Release the pool: all four parked solves complete normally.
	<-e.sem
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("parked request finished with %d", c)
		}
	}
	st := e.Stats()
	if st.TenantRejections == 0 || st.Shed == 0 {
		t.Fatalf("rejection counters did not move: %+v", st)
	}
	waitFor(t, "admission drain", func() bool { return e.adm.Depth() == 0 })
	if got := e.adm.InFlight(); len(got) != 0 {
		t.Fatalf("tenant in-flight leaked: %v", got)
	}
}

// TestMmapFaultInjection pins the mmap fire site: with an armed error the
// open fails with ErrInjected before it ever touches the filesystem.
func TestMmapFaultInjection(t *testing.T) {
	resilience.Arm(resilience.NewFaults(3, map[resilience.Site]resilience.SiteFaults{
		resilience.SiteMmap: {ErrorRate: 1, Times: 1},
	}))
	defer resilience.Disarm()
	if _, err := graph.OpenMapped("this-path-does-not-exist"); !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// chaosInstance pairs a request with its fault-free energy.
type chaosInstance struct {
	req    *SolveRequest
	energy float64
}

// chaosRequests builds the storm's instance pool: three graph families ×
// the four energy models, each with 50% deadline slack.
func chaosRequests(t *testing.T) []*SolveRequest {
	t.Helper()
	models := []ModelSpec{
		{Kind: "continuous", SMax: 4},
		{Kind: "discrete", Modes: []float64{1, 2, 4}},
		{Kind: "vdd-hopping", Modes: []float64{1, 2, 4}},
		{Kind: "incremental", SMin: 1, SMax: 4, Delta: 0.5},
	}
	graphs := []func() *graph.Graph{
		func() *graph.Graph { // chain
			g := graph.New()
			prev := g.AddTask("t0", 2)
			for i := 1; i < 6; i++ {
				n := g.AddTask(fmt.Sprintf("t%d", i), 1+float64(i%3))
				g.MustAddEdge(prev, n)
				prev = n
			}
			return g
		},
		func() *graph.Graph { // fork-join diamond
			g := graph.New()
			src := g.AddTask("src", 1)
			sink := g.AddTask("sink", 1)
			for i := 0; i < 4; i++ {
				m := g.AddTask(fmt.Sprintf("m%d", i), 2)
				g.MustAddEdge(src, m)
				g.MustAddEdge(m, sink)
			}
			return g
		},
		func() *graph.Graph { // general layered DAG
			return graph.Layered(rand.New(rand.NewSource(99)), 5, 4, 0.4, graph.UniformWeights(0.5, 2))
		},
	}
	var reqs []*SolveRequest
	for _, mk := range graphs {
		for _, m := range models {
			g := mk()
			smax := m.SMax
			if len(m.Modes) > 0 {
				smax = m.Modes[len(m.Modes)-1]
			}
			dmin, err := g.MinimalDeadline(smax)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, &SolveRequest{Graph: g, Deadline: dmin * 1.5, Model: m})
		}
	}
	return reqs
}

// TestChaosStorm is the randomized fault/property suite: moderate error,
// latency, and panic rates at every fire site while a 16-way storm mixes
// solves, streams, batches, and session lifecycles across all four models.
// Properties: the process survives, every failure is a classified error,
// non-degraded successes match the fault-free energies to 1e-9, and after
// the storm drains no admission token, pool slot, session, or structure
// pin is leaked.
func TestChaosStorm(t *testing.T) {
	reqs := chaosRequests(t)

	// Fault-free ground truth first, on a calm engine.
	calm := NewEngine(Options{Workers: 4, VerifyTol: 1e-9})
	insts := make([]chaosInstance, len(reqs))
	for i, r := range reqs {
		resp, err := calm.Solve(context.Background(), r)
		if err != nil {
			t.Fatalf("clean solve %d: %v", i, err)
		}
		insts[i] = chaosInstance{req: r, energy: resp.Energy}
	}

	e := NewEngine(Options{
		Workers:          4,
		MaxBacklog:       12,
		DegradeWatermark: 0.5,
		VerifyTol:        1e-9,
		CacheSize:        64,
	})
	st := NewSessionStore(e, SessionConfig{MaxSessions: 64})

	resilience.Arm(resilience.NewFaults(4242, map[resilience.Site]resilience.SiteFaults{
		resilience.SiteSolver:   {ErrorRate: 0.02, LatencyRate: 0.05, Latency: 2 * time.Millisecond, PanicRate: 0.01},
		resilience.SiteStore:    {ErrorRate: 0.02},
		resilience.SitePipeline: {ErrorRate: 0.01, LatencyRate: 0.05, Latency: time.Millisecond, PanicRate: 0.005},
	}))
	defer resilience.Disarm()

	tenants := []string{"red", "green", "blue"}
	const workers, iters = 16, 20
	var wg sync.WaitGroup
	errCh := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for it := 0; it < iters; it++ {
				inst := insts[rng.Intn(len(insts))]
				ctx := WithTenant(context.Background(), tenants[rng.Intn(len(tenants))])
				switch op := rng.Intn(10); {
				case op < 6: // plain solve
					req := *inst.req
					req.NoCache = rng.Intn(2) == 0
					resp, err := e.Solve(ctx, &req)
					if err != nil {
						break // injected or shed: classified below
					}
					if !resp.Degraded && math.Abs(resp.Energy-inst.energy) > 1e-9 {
						errCh <- fmt.Errorf("storm solve energy %v, want %v", resp.Energy, inst.energy)
					}
				case op < 8: // streaming solve, events discarded
					em := NewStreamEmitter(func(StreamEvent) error { return nil })
					resp, err := e.SolveStream(ctx, inst.req, em)
					if err != nil {
						break
					}
					if !resp.Degraded && math.Abs(resp.Energy-inst.energy) > 1e-9 {
						errCh <- fmt.Errorf("storm stream energy %v, want %v", resp.Energy, inst.energy)
					}
				case op < 9: // batch of three
					batch := []*SolveRequest{insts[rng.Intn(len(insts))].req, insts[rng.Intn(len(insts))].req, inst.req}
					for _, res := range e.SolveBatch(ctx, batch) {
						_ = res
					}
				default: // session lifecycle on the five-task chain
					var sreq SessionRequest
					if err := json.Unmarshal([]byte(fiveChainBody), &sreq.SolveRequest); err != nil {
						errCh <- err
						break
					}
					sess, err := st.Create(ctx, &sreq)
					if err != nil {
						break
					}
					_, _ = st.Events(ctx, sess.SessionID, []reclaim.CompletionEvent{{Task: 0, ActualDuration: 2.0}})
					_ = st.Delete(sess.SessionID)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	resilience.Disarm()

	// Drain: all background work leaves the system and no token survives.
	waitFor(t, "admission drain", func() bool { return e.adm.Depth() == 0 })
	waitFor(t, "pool drain", func() bool { return len(e.sem) == 0 })
	if got := e.adm.InFlight(); len(got) != 0 {
		t.Fatalf("tenant in-flight leaked: %v", got)
	}
	// Any session that survived an injected delete failure is reclaimed
	// now; afterwards no structure pin may remain.
	for _, s := range st.List().Sessions {
		_ = st.Delete(s.SessionID)
	}
	if n := st.Stats().Live; n != 0 {
		t.Fatalf("%d sessions leaked", n)
	}
	if n := e.Structures().Pinned(); n != 0 {
		t.Fatalf("%d structure pins leaked", n)
	}
}
