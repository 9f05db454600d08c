package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// newGoldenServer mounts the exact handler wiring main uses.
func newGoldenServer(t *testing.T) *httptest.Server {
	t.Helper()
	engine := service.NewEngine(service.Options{VerifyTol: 1e-9})
	srv := httptest.NewServer(service.NewHandler(engine, service.HTTPOptions{}))
	t.Cleanup(srv.Close)
	return srv
}

func solveGolden(t *testing.T, srv *httptest.Server, body string) service.SolveResponse {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out service.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenChain: the package example — chain (3, 5), D = 4, smax = 2. The
// paper's Theorem 1 closed form gives constant speed W/D = 2 everywhere and
// energy W·(W/D)² = 8·4 = 32.
func TestGoldenChain(t *testing.T) {
	srv := newGoldenServer(t)
	out := solveGolden(t, srv, `{
		"graph":{"tasks":[{"name":"first","weight":3},{"name":"second","weight":5}],"edges":[[0,1]]},
		"deadline":4,
		"model":{"kind":"continuous","smax":2}}`)
	if out.Algorithm != "chain-closed-form" {
		t.Fatalf("algorithm = %q", out.Algorithm)
	}
	if math.Abs(out.Energy-32) > 1e-9 {
		t.Fatalf("energy = %.12g, want 32", out.Energy)
	}
	for i, s := range out.Speeds {
		if math.Abs(s-2) > 1e-9 {
			t.Fatalf("speed[%d] = %.12g, want 2", i, s)
		}
	}
	if math.Abs(out.Makespan-4) > 1e-9 {
		t.Fatalf("makespan = %v, want 4", out.Makespan)
	}
}

// TestGoldenFork: example_test.go's fork — source w₀ = 2, leaves {1, 3, 4},
// D = 5. Theorem 1: s₀ = (∛(Σwᵢ³) + w₀)/D, each leaf i at s₀·wᵢ/∛(Σwᵢ³),
// recomputed here from the formula as an independent oracle.
func TestGoldenFork(t *testing.T) {
	srv := newGoldenServer(t)
	out := solveGolden(t, srv, `{
		"graph":{"tasks":[{"name":"source","weight":2},{"weight":1},{"weight":3},{"weight":4}],
		         "edges":[[0,1],[0,2],[0,3]]},
		"deadline":5,
		"model":{"kind":"continuous","smax":100}}`)
	if out.Algorithm != "fork-closed-form" {
		t.Fatalf("algorithm = %q", out.Algorithm)
	}

	const w0, D = 2.0, 5.0
	leaves := []float64{1, 3, 4}
	sumCubes := 0.0
	for _, w := range leaves {
		sumCubes += w * w * w
	}
	croot := math.Cbrt(sumCubes)
	s0 := (croot + w0) / D
	wantEnergy := w0 * s0 * s0
	for _, w := range leaves {
		si := s0 * w / croot
		wantEnergy += w * si * si
	}

	if math.Abs(out.Speeds[0]-s0) > 1e-9 {
		t.Fatalf("s0 = %.12g, want %.12g", out.Speeds[0], s0)
	}
	if math.Abs(out.Speeds[0]-1.3029) > 5e-5 {
		t.Fatalf("s0 = %.4f, want the documented 1.3029", out.Speeds[0])
	}
	if math.Abs(out.Energy-wantEnergy) > 1e-9*wantEnergy {
		t.Fatalf("energy = %.12g, want Theorem 1's %.12g", out.Energy, wantEnergy)
	}
}

// TestGoldenVddAndDiscrete: example_test.go's single-task instance (w = 2,
// D = 2, modes {0.5, 2}). Hopping mixes the modes to average speed 1 —
// splitting w = x at 2 and 2−x at 0.5 with x/2 + (2−x)/0.5 = 2 gives
// x = 4/3 and E = 4x + (2−x)/4 = 5.5. A single task is a chain, so the
// chain closed form answers. Forcing a single mode rounds up to 2:
// E = 2·2² = 8.
func TestGoldenVddAndDiscrete(t *testing.T) {
	srv := newGoldenServer(t)

	vdd := solveGolden(t, srv, `{
		"graph":{"tasks":[{"name":"only","weight":2}],"edges":[]},
		"deadline":2,
		"model":{"kind":"vdd-hopping","modes":[0.5,2]}}`)
	if vdd.Algorithm != "vdd-chain-closed-form" {
		t.Fatalf("algorithm = %q", vdd.Algorithm)
	}
	if math.Abs(vdd.Energy-5.5) > 1e-9 {
		t.Fatalf("vdd energy = %.12g, want 5.5", vdd.Energy)
	}
	// The hopping profile must cover exactly the task's work within D.
	work, dur := 0.0, 0.0
	for _, seg := range vdd.Profiles[0] {
		work += seg.Speed * seg.Duration
		dur += seg.Duration
	}
	if math.Abs(work-2) > 1e-9 || dur > 2+1e-9 {
		t.Fatalf("profile covers work %.12g in %.12g", work, dur)
	}

	disc := solveGolden(t, srv, `{
		"graph":{"tasks":[{"name":"only","weight":2}],"edges":[]},
		"deadline":2,
		"model":{"kind":"discrete","modes":[0.5,2]}}`)
	if math.Abs(disc.Energy-8) > 1e-9 {
		t.Fatalf("discrete energy = %.12g, want 8", disc.Energy)
	}
	if !disc.Exact {
		t.Fatal("branch-and-bound result not marked exact")
	}
}

// TestGoldenBatchOverHTTP replays all golden instances in one batch and
// checks each result matches its single-request twin byte-for-byte on the
// energy values.
func TestGoldenBatchOverHTTP(t *testing.T) {
	srv := newGoldenServer(t)
	body := `{"requests":[
		{"id":"chain","graph":{"tasks":[{"weight":3},{"weight":5}],"edges":[[0,1]]},"deadline":4,"model":{"kind":"continuous","smax":2}},
		{"id":"vdd","graph":{"tasks":[{"weight":2}],"edges":[]},"deadline":2,"model":{"kind":"vdd-hopping","modes":[0.5,2]}},
		{"id":"disc","graph":{"tasks":[{"weight":2}],"edges":[]},"deadline":2,"model":{"kind":"discrete","modes":[0.5,2]}},
		{"id":"broken","graph":{"tasks":[{"weight":8}],"edges":[]},"deadline":1,"model":{"kind":"continuous","smax":2}}
	]}`
	resp, err := http.Post(srv.URL+"/v1/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.BatchResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"chain": 32, "vdd": 5.5, "disc": 8}
	if len(out.Results) != 4 {
		t.Fatalf("%d results", len(out.Results))
	}
	for _, item := range out.Results[:3] {
		if item.Error != nil {
			t.Fatalf("unexpected error: %+v", item.Error)
		}
		if w := want[item.Response.ID]; math.Abs(item.Response.Energy-w) > 1e-9 {
			t.Fatalf("%s: energy %.12g, want %g", item.Response.ID, item.Response.Energy, w)
		}
	}
	if out.Results[3].Error == nil || out.Results[3].Error.Code != "infeasible" {
		t.Fatalf("broken request: %+v", out.Results[3])
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
