package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// collectEmitter gathers a stream's events in memory.
type collectEmitter struct {
	mu     sync.Mutex
	events []StreamEvent
}

func (c *collectEmitter) send(ev StreamEvent) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
	return nil
}

func (c *collectEmitter) byType(typ string) []StreamEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []StreamEvent
	for _, ev := range c.events {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// streamModels are the four paper models, sized so every family solves
// quickly but none degenerates.
var streamModels = []ModelSpec{
	{Kind: "continuous", SMax: 2},
	{Kind: "discrete", Modes: []float64{0.5, 1, 2}},
	{Kind: "vdd-hopping", Modes: []float64{0.5, 1, 2}},
	{Kind: "incremental", SMin: 0.5, SMax: 2, Delta: 0.5},
}

// TestStreamMatchesMonolithic is the equivalence property: for workloads
// across the generator families × the four models, the streamed solve and
// the monolithic solve agree on energy to 1e-9 (they share one pipeline,
// so anything else is a bug in the emit path).
func TestStreamMatchesMonolithic(t *testing.T) {
	families := []string{"chain", "fork", "sp", "layered", "multi"}
	e := NewEngine(Options{Workers: 4, VerifyTol: 1e-9})
	for _, fam := range families {
		for _, spec := range streamModels {
			n := 12
			if fam == "multi" {
				n = 4 // four ~20-task components: the multi-component case
			}
			g, err := workload.FromSeed(fam, n, 7, 0.5, 3)
			if err != nil {
				t.Fatalf("%s: %v", fam, err)
			}
			req := &SolveRequest{Graph: g, Deadline: 40, Model: spec, NoCache: true}
			mono, err := e.Solve(context.Background(), req)
			if err != nil {
				t.Fatalf("%s/%s monolithic: %v", fam, spec.Kind, err)
			}
			col := &collectEmitter{}
			streamed, err := e.SolveStream(context.Background(), req, NewStreamEmitter(col.send))
			if err != nil {
				t.Fatalf("%s/%s streamed: %v", fam, spec.Kind, err)
			}
			if diff := math.Abs(mono.Energy - streamed.Energy); diff > 1e-9 {
				t.Errorf("%s/%s: streamed energy %v vs monolithic %v (diff %g)",
					fam, spec.Kind, streamed.Energy, mono.Energy, diff)
			}
			plans := col.byType(EventPlan)
			comps := col.byType(EventComponent)
			total := len(streamed.Plan.Components)
			if len(plans) != total || len(comps) != total {
				t.Errorf("%s/%s: %d plan and %d component events for %d components",
					fam, spec.Kind, len(plans), len(comps), total)
			}
		}
	}
}

// TestStreamEventShape pins the chunked semantics on a multi-component
// instance: sequence numbers are strictly increasing, every component event
// carries a monotone running energy, and the first component event was
// emitted while later components were still unsolved (Solved < Total at
// send time — the stream does not buffer until the end).
func TestStreamEventShape(t *testing.T) {
	g1, _ := workload.FromSeed("chain", 5, 1, 0.5, 3)
	g2, _ := workload.FromSeed("fork", 6, 2, 0.5, 3)
	g3, _ := workload.FromSeed("sp", 7, 3, 0.5, 3)
	g := workload.DisjointUnion(g1, g2, g3)
	e := NewEngine(Options{Workers: 2})
	col := &collectEmitter{}
	resp, err := e.SolveStream(context.Background(),
		&SolveRequest{Graph: g, Deadline: 30, Model: streamModels[0], NoCache: true},
		NewStreamEmitter(col.send))
	if err != nil {
		t.Fatal(err)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.events) == 0 {
		t.Fatal("no events")
	}
	var last uint64
	running := 0.0
	for _, ev := range col.events {
		if ev.Seq <= last {
			t.Fatalf("seq %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		if ev.Type != EventComponent {
			continue
		}
		var data StreamComponentData
		if err := json.Unmarshal(ev.Data, &data); err != nil {
			t.Fatal(err)
		}
		if data.RunningEnergy < running-1e-12 {
			t.Fatalf("running energy went backwards: %v after %v", data.RunningEnergy, running)
		}
		running = data.RunningEnergy
		if data.Solved == 1 && data.Total < 2 {
			t.Fatalf("expected a multi-component instance, total = %d", data.Total)
		}
	}
	if math.Abs(running-resp.Energy) > 1e-9 {
		t.Fatalf("final running energy %v != result energy %v", running, resp.Energy)
	}
}

// TestStreamCancelReleasesPool cancels a stream mid-flight and asserts the
// engine fully unwinds: SolveStream returns the cancellation, the canceled
// counter ticks, and the backlog gauge returns to zero (no leaked pool
// slot or worker).
func TestStreamCancelReleasesPool(t *testing.T) {
	g1, _ := workload.FromSeed("layered", 30, 11, 0.5, 3)
	g2, _ := workload.FromSeed("layered", 30, 12, 0.5, 3)
	g3, _ := workload.FromSeed("layered", 30, 13, 0.5, 3)
	g := workload.DisjointUnion(g1, g2, g3)
	e := NewEngine(Options{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	firstEvent := make(chan struct{})
	var once sync.Once
	em := NewStreamEmitter(func(ev StreamEvent) error {
		once.Do(func() { close(firstEvent) })
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.SolveStream(ctx, &SolveRequest{Graph: g, Deadline: 200, Model: streamModels[0], NoCache: true}, em)
		done <- err
	}()
	<-firstEvent
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled stream did not return")
	}
	st := e.Stats()
	if st.Canceled != 1 {
		t.Fatalf("canceled counter %d, want 1", st.Canceled)
	}
	if st.Backlog != 0 {
		t.Fatalf("backlog gauge %d after unwind, want 0", st.Backlog)
	}
}

// readSSE consumes one SSE stream, returning the decoded envelopes.
func readSSE(t *testing.T, body *bufio.Reader, max int) []StreamEvent {
	t.Helper()
	var out []StreamEvent
	for len(out) < max {
		line, err := body.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimRight(line, "\n")
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		out = append(out, ev)
		if ev.Type == EventResult || ev.Type == EventError {
			break
		}
	}
	return out
}

// TestStreamHTTP drives POST /v1/solve/stream end to end: SSE content type,
// plan/component events, and a terminal result whose energy matches the
// monolithic route.
func TestStreamHTTP(t *testing.T) {
	srv, _ := newTestServer(t, Options{VerifyTol: 1e-9}, HTTPOptions{})
	resp, err := http.Post(srv.URL+"/v1/solve/stream", "application/json", strings.NewReader(chainBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body), 100)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	terminal := events[len(events)-1]
	if terminal.Type != EventResult {
		t.Fatalf("terminal event %q, want result", terminal.Type)
	}
	var out SolveResponse
	if err := json.Unmarshal(terminal.Data, &out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Energy-32) > 1e-6 {
		t.Fatalf("energy %v, want 32", out.Energy)
	}
}

// TestStreamHTTPEmptyGraph: a zero-component instance is a valid stream —
// no plan or component events, one terminal result with zero energy.
func TestStreamHTTPEmptyGraph(t *testing.T) {
	srv, _ := newTestServer(t, Options{}, HTTPOptions{})
	body := `{"graph":{"tasks":[],"edges":[]},"deadline":1,"model":{"kind":"continuous","smax":1}}`
	resp, err := http.Post(srv.URL+"/v1/solve/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	events := readSSE(t, bufio.NewReader(resp.Body), 10)
	if len(events) != 1 || events[0].Type != EventResult {
		t.Fatalf("events %+v, want exactly one terminal result", events)
	}
	var out SolveResponse
	if err := json.Unmarshal(events[0].Data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Energy != 0 || out.Algorithm != "empty" {
		t.Fatalf("empty-graph result %+v", out)
	}
}

// TestStreamHTTPErrorsBeforeStart: failures before the first event are
// plain JSON errors with the documented code, not SSE.
func TestStreamHTTPErrorsBeforeStart(t *testing.T) {
	srv, _ := newTestServer(t, Options{}, HTTPOptions{})
	resp, body := postJSON(t, srv.URL+"/v1/solve/stream", `{"deadline":1,"model":{"kind":"continuous","smax":1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != string(CodeBadRequest) {
		t.Fatalf("error body %s", body)
	}
}

// TestStreamHTTPDisconnectCancels closes the client connection mid-stream
// and asserts the engine's backlog gauge drains to zero and no worker
// goroutines leak: a gone client must cancel the downstream stages.
func TestStreamHTTPDisconnectCancels(t *testing.T) {
	// Big enough that the solve outlives disconnect detection by a wide
	// margin even on a loaded machine: four ~120-task interior-point
	// components on one plan worker give a few hundred ms of runway.
	g1, _ := workload.FromSeed("layered", 120, 21, 0.5, 3)
	g2, _ := workload.FromSeed("layered", 120, 22, 0.5, 3)
	g3, _ := workload.FromSeed("layered", 120, 23, 0.5, 3)
	g4, _ := workload.FromSeed("layered", 120, 24, 0.5, 3)
	g := workload.DisjointUnion(g1, g2, g3, g4)
	dmin, err := g.MinimalDeadline(2)
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Graph: g, Deadline: dmin * 1.4, Model: streamModels[0], NoCache: true}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	srv, e := newTestServer(t, Options{Workers: 2}, HTTPOptions{})
	before := runtime.NumGoroutine()
	resp, err := http.Post(srv.URL+"/v1/solve/stream", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	// Read one event so the stream is live, then slam the door.
	buf := bufio.NewReader(resp.Body)
	if _, err := buf.ReadString('\n'); err != nil {
		t.Fatalf("reading first event: %v", err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := e.Stats()
		if st.Backlog == 0 && st.Canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream did not unwind after disconnect: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Goroutines settle back near the baseline (no leaked stage workers).
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamConcurrentStress races many streams (and cache replays) against
// each other; run under -race this is the data-race gate for the shared
// pipeline path.
func TestStreamConcurrentStress(t *testing.T) {
	e := NewEngine(Options{Workers: 4})
	g1, _ := workload.FromSeed("fork", 10, 5, 0.5, 3)
	g2, _ := workload.FromSeed("sp", 10, 6, 0.5, 3)
	g := workload.DisjointUnion(g1, g2)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			col := &collectEmitter{}
			req := &SolveRequest{Graph: g, Deadline: 50, Model: streamModels[i%len(streamModels)], NoCache: i%3 == 0}
			if _, err := e.SolveStream(context.Background(), req, NewStreamEmitter(col.send)); err != nil {
				t.Errorf("stream %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if st := e.Stats(); st.Backlog != 0 {
		t.Fatalf("backlog %d after quiesce", st.Backlog)
	}
}
