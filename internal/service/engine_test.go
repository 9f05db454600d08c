package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/platform"
)

// chainRequest is the doc example: 3+5 chain, D=4 → speed 2 everywhere,
// energy 8·2² = 32.
func chainRequest() *SolveRequest {
	g := graph.New()
	a := g.AddTask("first", 3)
	b := g.AddTask("second", 5)
	g.MustAddEdge(a, b)
	return &SolveRequest{
		Graph:    g,
		Deadline: 4,
		Model:    ModelSpec{Kind: "continuous", SMax: 2},
	}
}

func TestSolveContinuousChain(t *testing.T) {
	e := NewEngine(Options{VerifyTol: 1e-9})
	resp, err := e.Solve(context.Background(), chainRequest())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Energy-32) > 1e-6 {
		t.Fatalf("energy = %v, want 32", resp.Energy)
	}
	if len(resp.Speeds) != 2 || math.Abs(resp.Speeds[0]-2) > 1e-6 {
		t.Fatalf("speeds = %v, want [2 2]", resp.Speeds)
	}
	if resp.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	if !resp.Exact {
		t.Fatal("continuous chain solve should be exact")
	}
}

func TestSolveCacheHit(t *testing.T) {
	e := NewEngine(Options{})
	ctx := context.Background()

	first, err := e.Solve(ctx, chainRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Same instance under different task names: must share the cache entry.
	renamed := chainRequest()
	renamed.Graph = graph.New()
	x := renamed.Graph.AddTask("alpha", 3)
	y := renamed.Graph.AddTask("beta", 5)
	renamed.Graph.MustAddEdge(x, y)
	renamed.ID = "req-2"

	second, err := e.Solve(ctx, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical instance missed the cache")
	}
	if second.ID != "req-2" {
		t.Fatalf("cached response ID = %q, want the new request's", second.ID)
	}
	if second.Energy != first.Energy {
		t.Fatalf("cached energy %v != original %v", second.Energy, first.Energy)
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Solved != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 solved", st)
	}

	// NoCache must re-solve…
	fresh := chainRequest()
	fresh.NoCache = true
	third, err := e.Solve(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("NoCache request reported a cache hit")
	}
	if got := e.Stats(); got.Solved != 2 {
		t.Fatalf("NoCache did not re-solve: %+v", got)
	}
}

func TestSolveCacheKeyedByParameters(t *testing.T) {
	e := NewEngine(Options{})
	ctx := context.Background()
	if _, err := e.Solve(ctx, chainRequest()); err != nil {
		t.Fatal(err)
	}
	// A different deadline is a different instance.
	tighter := chainRequest()
	tighter.Deadline = 5
	resp, err := e.Solve(ctx, tighter)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("different deadline hit the cache")
	}
	if resp.Energy >= 32 {
		t.Fatalf("looser deadline should cost less energy, got %v", resp.Energy)
	}
}

func TestSolveVddAndDiscrete(t *testing.T) {
	// example_test.go's Vdd instance: cost 2, D=2, modes {0.5, 2} → 5.5
	// hopping, 8 when forced to one mode.
	e := NewEngine(Options{VerifyTol: 1e-9})
	ctx := context.Background()
	g := graph.New()
	g.AddTask("only", 2)

	vdd, err := e.Solve(ctx, &SolveRequest{
		Graph:    g,
		Deadline: 2,
		Model:    ModelSpec{Kind: "vdd-hopping", Modes: []float64{0.5, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vdd.Energy-5.5) > 1e-6 {
		t.Fatalf("vdd energy = %v, want 5.5", vdd.Energy)
	}
	if len(vdd.Profiles) != 1 || len(vdd.Profiles[0]) < 2 {
		t.Fatalf("vdd solution should hop between modes, profiles = %v", vdd.Profiles)
	}

	disc, err := e.Solve(ctx, &SolveRequest{
		Graph:    g,
		Deadline: 2,
		Model:    ModelSpec{Kind: "discrete", Modes: []float64{0.5, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(disc.Energy-8) > 1e-6 {
		t.Fatalf("discrete energy = %v, want 8", disc.Energy)
	}
}

func TestSolveWithMappingAndProcessors(t *testing.T) {
	e := NewEngine(Options{VerifyTol: 1e-9})
	ctx := context.Background()
	g := graph.New()
	a := g.AddTask("prep", 4)
	b := g.AddTask("left", 6)
	c := g.AddTask("right", 2)
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)

	// Explicit mapping and equivalent list-scheduled request must agree
	// (ListSchedule on 1 processor serializes in topo/bottom-level order).
	mapping, err := platform.SingleProcessor(g)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := e.Solve(ctx, &SolveRequest{
		Graph: g, Mapping: mapping, Deadline: 12,
		Model: ModelSpec{Kind: "continuous", SMax: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Energy <= 0 || explicit.Makespan > 12+1e-9 {
		t.Fatalf("bad solution: %+v", explicit)
	}
}

func TestSolveBadRequests(t *testing.T) {
	e := NewEngine(Options{})
	ctx := context.Background()
	cases := []struct {
		name string
		req  *SolveRequest
	}{
		{"nil graph", &SolveRequest{Deadline: 1, Model: ModelSpec{Kind: "continuous", SMax: 1}}},
		{"no model", func() *SolveRequest { r := chainRequest(); r.Model = ModelSpec{}; return r }()},
		{"bad kind", func() *SolveRequest { r := chainRequest(); r.Model.Kind = "quantum"; return r }()},
		{"bad algorithm", func() *SolveRequest { r := chainRequest(); r.Algorithm = "magic"; return r }()},
		{"bad deadline", func() *SolveRequest { r := chainRequest(); r.Deadline = -1; return r }()},
		{"algo for continuous", func() *SolveRequest { r := chainRequest(); r.Algorithm = AlgoBB; return r }()},
		{"adversarial incremental grid", func() *SolveRequest {
			r := chainRequest()
			r.Model = ModelSpec{Kind: "incremental", SMin: 1e-300, SMax: 1, Delta: 1e-300}
			return r
		}()},
		{"incremental smax=+Inf", func() *SolveRequest {
			r := chainRequest()
			r.Model = ModelSpec{Kind: "incremental", SMin: 1, SMax: math.Inf(1), Delta: 1}
			return r
		}()},
		{"incremental delta=NaN", func() *SolveRequest {
			r := chainRequest()
			r.Model = ModelSpec{Kind: "incremental", SMin: 1, SMax: 2, Delta: math.NaN()}
			return r
		}()},
		{"oversized mode list", func() *SolveRequest {
			r := chainRequest()
			modes := make([]float64, MaxModes+1)
			for i := range modes {
				modes[i] = float64(i + 1)
			}
			r.Model = ModelSpec{Kind: "discrete", Modes: modes}
			return r
		}()},
	}
	for _, tc := range cases {
		if _, err := e.Solve(ctx, tc.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	// Infeasible is a solver-side error, not a bad request.
	infeasible := chainRequest()
	infeasible.Deadline = 1 // needs speed 8 > smax 2
	if _, err := e.Solve(ctx, infeasible); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestIncrementalOverflowSpecTerminates: a spec whose grid is small by the
// ratio check but whose smax sits at the float ceiling used to hang model
// construction forever (smax·(1+ε) overflows to +Inf, so the materialization
// loop's break condition never fired). It must now build — quickly, and with
// the handful of modes the ratio promises.
func TestIncrementalOverflowSpecTerminates(t *testing.T) {
	spec := ModelSpec{Kind: "incremental", SMin: 1, SMax: math.MaxFloat64, Delta: 1e307}
	m, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Modes) > MaxModes {
		t.Fatalf("%d modes from an ~18-step grid", len(m.Modes))
	}
}

// TestSolveProcessorsClamped: a processor count far beyond the task count
// must not translate into per-processor allocations; it is clamped to the
// graph size and solves like the saturated schedule.
func TestSolveProcessorsClamped(t *testing.T) {
	e := NewEngine(Options{VerifyTol: 1e-9})
	req := chainRequest()
	req.Processors = 2_000_000_000
	resp, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !(resp.Energy > 0) || resp.Makespan > 4+1e-9 {
		t.Fatalf("bad solution: %+v", resp)
	}
}

// TestRepeatedInstanceSolvesOnce: across many rounds of concurrent identical
// requests, the solver must run exactly once — every later caller is served
// by the flight it joined or by the cache, including the race window where a
// request misses the cache just before the finishing solve populates it (the
// leader re-checks the cache after winning the flight).
func TestRepeatedInstanceSolvesOnce(t *testing.T) {
	e := NewEngine(Options{Workers: 4})
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Solve(ctx, chainRequest()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	st := e.Stats()
	if st.Solved != 1 {
		t.Fatalf("%d solver runs for one repeated instance (stats %+v)", st.Solved, st)
	}
	// Every completed request counts as exactly one of hit/miss — including
	// waiters behind a leader whose post-join re-check hit the cache.
	if st.Hits+st.Misses != 20*8 {
		t.Fatalf("hits %d + misses %d != %d requests (stats %+v)", st.Hits, st.Misses, 20*8, st)
	}
}

// TestSolveBatchMixedModels is the acceptance criterion: 100 mixed-model
// requests, some invalid, answered per-request without failing the batch.
func TestSolveBatchMixedModels(t *testing.T) {
	e := NewEngine(Options{Workers: 4, VerifyTol: 1e-9})
	ctx := context.Background()

	reqs := make([]*SolveRequest, 100)
	wantErr := make([]bool, 100)
	for i := range reqs {
		g := graph.New()
		a := g.AddTask("", 2+float64(i%5))
		b := g.AddTask("", 3)
		g.MustAddEdge(a, b)
		req := &SolveRequest{ID: fmt.Sprintf("r%d", i), Graph: g, Deadline: 10}
		switch i % 5 {
		case 0:
			req.Model = ModelSpec{Kind: "continuous", SMax: 2}
		case 1:
			req.Model = ModelSpec{Kind: "vdd-hopping", Modes: []float64{0.5, 1, 2}}
		case 2:
			req.Model = ModelSpec{Kind: "discrete", Modes: []float64{0.5, 1, 2}}
		case 3:
			req.Model = ModelSpec{Kind: "incremental", SMin: 0.5, SMax: 2, Delta: 0.25}
		case 4:
			// Deliberately broken: infeasible deadline.
			req.Model = ModelSpec{Kind: "continuous", SMax: 2}
			req.Deadline = 0.1
			wantErr[i] = true
		}
		reqs[i] = req
	}

	results := e.SolveBatch(ctx, reqs)
	if len(results) != 100 {
		t.Fatalf("got %d results for 100 requests", len(results))
	}
	for i, res := range results {
		if wantErr[i] {
			if res.Err == nil {
				t.Errorf("request %d: expected an error", i)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("request %d: unexpected error %v", i, res.Err)
			continue
		}
		if res.Response.ID != fmt.Sprintf("r%d", i) {
			t.Errorf("request %d: ID %q out of order", i, res.Response.ID)
		}
		if !(res.Response.Energy > 0) {
			t.Errorf("request %d: energy %v", i, res.Response.Energy)
		}
	}
}

// TestSolveCoalescesConcurrentDuplicates: identical requests arriving while
// the first is still solving must share that one solve instead of each
// burning a worker slot.
func TestSolveCoalescesConcurrentDuplicates(t *testing.T) {
	e := NewEngine(Options{Workers: 4})
	ctx := context.Background()
	req := slowRequest() // ~tens of ms cold: a wide window to pile into

	const callers = 8
	var wg sync.WaitGroup
	energies := make([]float64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := e.Solve(ctx, req)
			if err != nil {
				t.Error(err)
				return
			}
			energies[i] = resp.Energy
		}(i)
	}
	wg.Wait()

	st := e.Stats()
	if st.Solved != 1 {
		t.Fatalf("%d solver runs for %d identical concurrent requests (stats %+v)", st.Solved, callers, st)
	}
	if st.Coalesced+st.Hits != callers-1 {
		t.Fatalf("expected %d coalesced-or-hit callers, stats %+v", callers-1, st)
	}
	for i := 1; i < callers; i++ {
		if energies[i] != energies[0] {
			t.Fatalf("caller %d got energy %v, caller 0 got %v", i, energies[i], energies[0])
		}
	}
}

func TestSolveCancellation(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Solve(ctx, chainRequest()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A dead context must not have committed background work.
	if st := e.Stats(); st.Solved != 0 || e.adm.Depth() != 0 {
		t.Fatalf("canceled request dispatched a solve: %+v", st)
	}
}

// TestSolveOverloadShedding: beyond MaxBacklog queued solves, new work is
// refused with ErrOverloaded instead of growing the queue. A stream holds
// the single backlog slot: it is admitted before it emits, and its first
// send blocks until the test releases it, so the slot is held for as
// long as the test needs it.
func TestSolveOverloadShedding(t *testing.T) {
	e := NewEngine(Options{Workers: 1, MaxBacklog: 1, CacheSize: -1})
	ctx := context.Background()

	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	em := NewStreamEmitter(func(StreamEvent) error {
		once.Do(func() { close(entered) })
		<-gate
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.SolveStream(ctx, slowRequest(), em)
		done <- err
	}()
	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("stream returned before its first event: %v", err)
	}

	_, err := e.Solve(ctx, chainRequest())
	close(gate)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("held stream failed: %v", err)
	}
	// With the backlog drained, the same request must now be admitted.
	if _, err := e.Solve(ctx, chainRequest()); err != nil {
		t.Fatalf("post-drain solve failed: %v", err)
	}
}
