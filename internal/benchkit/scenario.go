// Package benchkit is the scenario-driven benchmark subsystem behind
// cmd/energybench and the BENCH_*.json artifacts: a Scenario names one
// measured workload (graph family × size × energy model × solve path),
// the Registry spans the paper's complexity landscape across graph
// families, all four energy models, and five solve paths (direct
// solver, planner-routed, end-to-end HTTP service under concurrent
// load, progressive SSE streaming timed to first or last result, and
// online reclaiming replays — warm vs cold residual re-solves under a
// jittered event stream), the Runner measures a
// scenario with warmup and repetitions into percentile statistics, and
// Compare diffs two reports into the CI regression gate.
package benchkit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/reclaim"
	"repro/internal/service"
	"repro/internal/workload"
)

// Solve paths a scenario can exercise.
const (
	// PathDirect runs core.SolveAuto on the whole problem in-process: the
	// routing table without the planner's component split or executor, no
	// transport.
	PathDirect = "direct"
	// PathPlanner routes through the structure-aware planner
	// (plan.Analyze + Execute): classification plus concurrent
	// per-component solving.
	PathPlanner = "planner"
	// PathService drives the HTTP service end-to-end: a wave of JSON
	// requests over concurrent clients against a live handler; one
	// sample is the wall time of the whole wave.
	PathService = "service"
	// PathStream drives one POST /v1/solve/stream against a live handler
	// and self-times a scenario-defined interval: from the request to the
	// first merged `component` event (Scenario.StreamFirst) or to the
	// terminal `result`. The pair against a monolithic single-request
	// service scenario is the streaming API's time-to-first-result story.
	PathStream = "stream"
	// PathReclaim replays a jittered execution through a reclaiming
	// session (internal/reclaim): one sample is a full closed-loop replay
	// — every completion event ingested, every dirtied residual
	// re-solved. Cold (Scenario.ReclaimCold) re-solves the whole residual
	// from scratch at each deviation; warm re-solves only the dirtied
	// components, seeded from the previous solution. The warm/cold pair
	// of one instance is the PR's headline speedup.
	PathReclaim = "reclaim"
)

// Registry tiers. The default tier is the ~7-second table every CI run
// measures; the large tier holds the 512–4096-task instances that pin
// the sparse interior-point kernel's asymptotics and runs as its own
// make target (bench-large); the huge tier holds the 32k–1M-task
// out-of-core instances behind make bench-huge, disk-generated and
// solved through the memory-mapped EGRF path with peak RSS recorded.
const (
	TierDefault = "default"
	TierLarge   = "large"
	TierHuge    = "huge"
	TierAll     = "all" // Select only: every tier
)

// Scenario is one named benchmark workload. Scenarios are pure data —
// building and running them is the Runner's job — so the registry reads
// as a table.
type Scenario struct {
	// Name is the unique registry key, matched by energybench -run.
	Name string
	// Family is the workload generator family (internal/workload).
	Family string
	// N is the family's size parameter.
	N int
	// Seed fixes the generator (and, on the service path, the per-request
	// variation).
	Seed int64
	// Model selects and parameterizes the energy model, in the service
	// wire form.
	Model service.ModelSpec
	// Path selects the solve path (PathDirect, PathPlanner, PathService,
	// PathStream, PathReclaim).
	Path string
	// Tier assigns the scenario to a registry tier; the zero value is
	// TierDefault. Large-tier scenarios only run when asked for
	// (energybench -tier large, make bench-large).
	Tier string
	// Slack stretches the minimal feasible deadline (default 1.4).
	Slack float64

	// Mmap routes the scenario through the out-of-core path: the
	// instance is written to a temporary EGRF file at build time (never
	// materialized as an in-memory Graph — that is the point) and each
	// rep solves it with core.SolveMappedContinuous straight from the
	// mapping. Only valid with PathDirect and the continuous model.
	Mmap bool

	// ForceNumeric bypasses the continuous dispatcher's structure
	// routing on the direct path and calls the interior-point kernel
	// (SolveContinuousNumeric) outright. Closed-form families like chain
	// would otherwise never reach the kernel; this is how the registry
	// times the sparse KKT solver on shapes whose exact optimum is known.
	// Only valid with PathDirect and the continuous model.
	ForceNumeric bool

	// Clients is the service-path concurrency (default 8).
	Clients int
	// Requests is the service-path wave size (default 24). Requests are
	// distinct instances (Seed+i) unless Repeat is set.
	Requests int
	// Repeat makes every service-path request the same instance — the
	// cache-hit workload.
	Repeat bool
	// NoCache marks every service-path request no_cache and disables the
	// engine cache, so a repeated instance measures the full solve.
	NoCache bool
	// JitterValues perturbs every service-path request's weights by a
	// seeded factor in [1−J, 1+J] (deadline recomputed on the jittered
	// weights): combined with Repeat, the wave is one shape under value
	// churn — instance-cache misses that the structure cache can absorb.
	JitterValues float64
	// NoStructure disables the engine's structure cache, so a jittered
	// repeat pays the full ordering+symbolic+classification cost on every
	// request. The NoStructure/structure-warm twin of one jittered wave
	// is the amortization layer's headline pair.
	NoStructure bool

	// StreamFirst stops the stream path's measured interval at the first
	// `component` event instead of the terminal `result`; the rest of the
	// stream is abandoned (client disconnect cancels the downstream
	// stages) and the engine unwinds outside the timed region.
	StreamFirst bool

	// ReclaimCold switches the reclaim path to the cold baseline: every
	// deviation re-solves the full residual from scratch (no component
	// reuse, no warm starts).
	ReclaimCold bool
	// Jitter perturbs the reclaim replay's durations; the zero value
	// defaults to {Seed, Rate 0.5, Early 0.35, Late 0.05}.
	Jitter workload.Jitter

	// Warmup and Reps override the Runner's defaults when positive
	// (expensive scenarios trim repetitions to keep the full registry
	// affordable in CI).
	Warmup int
	Reps   int
}

func (s Scenario) tier() string {
	if s.Tier == "" {
		return TierDefault
	}
	return s.Tier
}

func (s Scenario) slack() float64 {
	if s.Slack > 0 {
		return s.Slack
	}
	return 1.4
}

func (s Scenario) clients() int {
	if s.Clients > 0 {
		return s.Clients
	}
	return 8
}

func (s Scenario) requests() int {
	if s.Requests > 0 {
		return s.Requests
	}
	return 24
}

// runnable is a built scenario: rep runs one measured sample and returns
// the energy it produced; close releases path resources (HTTP server).
// repTimed, when set, replaces the runner's wall-clock bracket with a
// scenario-defined measured interval (streaming scenarios time to a
// mid-stream event, then drain untimed).
type runnable struct {
	tasks, edges int
	deadline     float64
	rep          func() (float64, error)
	repTimed     func() (time.Duration, float64, error)
	close        func()
}

// build materializes the scenario: generate the graph(s), derive a
// feasible deadline, and bind the solve path. Everything expensive that
// is not the measured operation (graph generation, request encoding,
// server startup) happens here, outside the timed region.
func (s Scenario) build() (*runnable, error) {
	mdl, err := s.Model.Build()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Mmap {
		return s.buildMmap(mdl.SMax)
	}
	g, err := workload.FromSeed(s.Family, s.N, s.Seed, 0.5, 3)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	// Every constructor keeps SMax at the fastest admissible speed, so
	// the minimal deadline is well-defined for all four model kinds.
	dmin, err := g.MinimalDeadline(mdl.SMax)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	deadline := dmin * s.slack()
	r := &runnable{tasks: g.N(), edges: g.M(), deadline: deadline, close: func() {}}

	if s.ForceNumeric && (s.Path != PathDirect || s.Model.Kind != "continuous") {
		return nil, fmt.Errorf("scenario %s: ForceNumeric requires the direct path and the continuous model", s.Name)
	}

	switch s.Path {
	case PathDirect:
		prob, err := core.NewProblem(g, deadline)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if s.ForceNumeric {
			r.rep = func() (float64, error) {
				sol, err := prob.SolveContinuousNumeric(mdl.SMax, core.ContinuousOptions{})
				if err != nil {
					return 0, err
				}
				return sol.Energy, nil
			}
			break
		}
		r.rep = func() (float64, error) {
			sol, err := prob.SolveAuto(mdl, core.PlannedOptions{})
			if err != nil {
				return 0, err
			}
			return sol.Energy, nil
		}
	case PathPlanner:
		prob, err := core.NewProblem(g, deadline)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		r.rep = func() (float64, error) {
			pl, err := plan.Analyze(prob, mdl, plan.Options{})
			if err != nil {
				return 0, err
			}
			sol, err := pl.Execute()
			if err != nil {
				return 0, err
			}
			return sol.Energy, nil
		}
	case PathService:
		return s.buildService(r)
	case PathStream:
		return s.buildStream(r, g)
	case PathReclaim:
		prob, err := core.NewProblem(g, deadline)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		pl, err := plan.Analyze(prob, mdl, plan.Options{})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		sol, err := pl.Execute()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		jit := s.Jitter
		if jit == (workload.Jitter{}) {
			jit = workload.Jitter{Seed: s.Seed, Rate: 0.5, Early: 0.35, Late: 0.05}
		}
		factors, err := jit.Factors(g.N())
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		// One rep = a fresh session replaying the whole jittered
		// execution: the initial solve stays outside the timed region;
		// the event ingestion and every residual re-solve are inside it.
		r.rep = func() (float64, error) {
			sess, err := reclaim.NewSession(prob, mdl, sol, reclaim.Options{Cold: s.ReclaimCold})
			if err != nil {
				return 0, err
			}
			results, err := sess.Replay(factors)
			if err != nil {
				return 0, err
			}
			last := results[len(results)-1]
			return last.IncurredEnergy + last.ResidualEnergy, nil
		}
	default:
		return nil, fmt.Errorf("scenario %s: unknown path %q", s.Name, s.Path)
	}
	return r, nil
}

// buildMmap writes the instance to a temporary EGRF file and binds a rep
// that solves it out-of-core. Generation streams to disk (chains never
// exist in memory at all), the mapping stays open across reps, and the
// file is removed on close.
func (s Scenario) buildMmap(smax float64) (*runnable, error) {
	if s.Path != PathDirect || s.Model.Kind != "continuous" {
		return nil, fmt.Errorf("scenario %s: Mmap requires the direct path and the continuous model", s.Name)
	}
	f, err := os.CreateTemp("", "energybench-*.egrf")
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	path := f.Name()
	f.Close()
	cleanup := func() { os.Remove(path) }
	if err := workload.WriteInstanceFile(path, s.Family, s.N, s.Seed, 0.5, 3); err != nil {
		cleanup()
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	mg, err := graph.OpenMapped(path)
	if err != nil {
		cleanup()
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	dmin, err := core.MappedMinimalDeadline(mg, smax)
	if err != nil {
		mg.Close()
		cleanup()
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	deadline := dmin * s.slack()
	r := &runnable{
		tasks:    mg.N(),
		edges:    mg.M(),
		deadline: deadline,
		close: func() {
			mg.Close()
			cleanup()
		},
	}
	r.rep = func() (float64, error) {
		res, err := core.SolveMappedContinuous(mg, deadline, smax, core.ContinuousOptions{})
		if err != nil {
			return 0, err
		}
		return res.Energy, nil
	}
	return r, nil
}

// buildStream stands up a live server and binds a self-timed rep over
// POST /v1/solve/stream: the measured interval runs from the request to
// the first merged `component` event (StreamFirst) or to the terminal
// `result`. A StreamFirst rep abandons the stream once its interval ends
// — closing the body cancels the remaining stages — then waits, untimed,
// for the engine backlog to unwind so samples never overlap.
func (s Scenario) buildStream(r *runnable, g *graph.Graph) (*runnable, error) {
	req := service.SolveRequest{
		Graph:    g,
		Deadline: r.deadline,
		Model:    s.Model,
		NoCache:  s.NoCache,
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	opts := service.Options{}
	if s.NoCache {
		opts.CacheSize = -1
	}
	engine := service.NewEngine(opts)
	srv := httptest.NewServer(service.NewHandler(engine, service.HTTPOptions{}))
	client := srv.Client()
	r.close = srv.Close

	r.repTimed = func() (time.Duration, float64, error) {
		start := time.Now()
		resp, err := client.Post(srv.URL+"/v1/solve/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev service.StreamEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return 0, 0, fmt.Errorf("stream: bad event: %w", err)
			}
			switch ev.Type {
			case service.EventComponent:
				if !s.StreamFirst {
					continue
				}
				elapsed := time.Since(start)
				var comp service.StreamComponentData
				if err := json.Unmarshal(ev.Data, &comp); err != nil {
					return 0, 0, err
				}
				resp.Body.Close()
				if err := waitEngineIdle(engine); err != nil {
					return 0, 0, err
				}
				return elapsed, comp.RunningEnergy, nil
			case service.EventResult:
				elapsed := time.Since(start)
				var out struct {
					Energy float64 `json:"energy"`
				}
				if err := json.Unmarshal(ev.Data, &out); err != nil {
					return 0, 0, err
				}
				return elapsed, out.Energy, nil
			case service.EventError:
				var apiErr struct {
					Message string `json:"message"`
				}
				_ = json.Unmarshal(ev.Data, &apiErr)
				return 0, 0, fmt.Errorf("stream: %s", apiErr.Message)
			}
		}
		if err := sc.Err(); err != nil {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("stream: ended without a terminal event")
	}
	return r, nil
}

// waitEngineIdle blocks until the engine's backlog gauge returns to zero
// (an abandoned stream's stages unwind in the background).
func waitEngineIdle(engine *service.Engine) error {
	deadline := time.Now().Add(10 * time.Second)
	for engine.Stats().Backlog != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("stream: engine backlog never unwound after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// buildService stands up a live HTTP server around a fresh engine and
// binds a rep that fires the request wave over a bounded client pool.
func (s Scenario) buildService(r *runnable) (*runnable, error) {
	mdl, err := s.Model.Build()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	bodies := make([][]byte, s.requests())
	for i := range bodies {
		seed := s.Seed
		if !s.Repeat {
			seed += int64(i + 1)
		}
		g, err := workload.FromSeed(s.Family, s.N, seed, 0.5, 3)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if s.JitterValues > 0 {
			rng := rand.New(rand.NewSource(s.Seed + int64(i+1)))
			w := make([]float64, g.N())
			for k := range w {
				w[k] = g.Weight(k) * (1 + s.JitterValues*(2*rng.Float64()-1))
			}
			g = g.CloneWithWeights(w)
		}
		// Each request carries its own feasible deadline: distinct
		// instances (and jittered weights) have distinct critical paths.
		dmin, err := g.MinimalDeadline(mdl.SMax)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		req := service.SolveRequest{
			Graph:    g,
			Deadline: dmin * s.slack(),
			Model:    s.Model,
			NoCache:  s.NoCache,
		}
		if bodies[i], err = json.Marshal(&req); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}

	opts := service.Options{}
	if s.NoCache {
		opts.CacheSize = -1
	}
	if s.NoStructure {
		opts.StructureCacheSize = -1
	}
	engine := service.NewEngine(opts)
	srv := httptest.NewServer(service.NewHandler(engine, service.HTTPOptions{}))
	client := srv.Client()
	r.close = srv.Close

	clients := s.clients()
	r.rep = func() (float64, error) {
		energies := make([]float64, len(bodies))
		errs := make([]error, len(bodies))
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					energies[i], errs[i] = postSolve(client, srv.URL, bodies[i])
				}
			}()
		}
		for i := range bodies {
			next <- i
		}
		close(next)
		wg.Wait()
		var total float64
		for i := range bodies {
			if errs[i] != nil {
				return 0, errs[i]
			}
			total += energies[i]
		}
		return total, nil
	}
	return r, nil
}

// postSolve fires one POST /v1/solve and returns the solved energy.
func postSolve(client *http.Client, baseURL string, body []byte) (float64, error) {
	resp, err := client.Post(baseURL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Message string `json:"message"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return 0, fmt.Errorf("solve: HTTP %d: %s", resp.StatusCode, apiErr.Message)
	}
	var out struct {
		Energy float64 `json:"energy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Energy, nil
}
