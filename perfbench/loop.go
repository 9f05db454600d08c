package main

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
	"repro/internal/service"
)

// connections is both the client connection count and the engine's worker
// count: nproc, so the benchmark never offers more concurrency than the
// machine has cores.
func connections() int { return runtime.NumCPU() }

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     connections(),
		MaxIdleConnsPerHost: connections(),
		DisableCompression:  true,
	}}
}

// openLoop sends job i at offset at(i) from the start, whatever the state
// of earlier jobs (independent users), over connections() workers. A job
// due while every worker is busy waits in a queue; do receives the job's
// intended send time so its latency counts that wait. do may return a
// trace step, which runs on one tracer goroutine beside the workers, so
// tracing costs the open loop CPU time but never a connection. openLoop
// returns once every job and trace step has finished, with the generator's
// lateness against its schedule for each job, in milliseconds, and the
// first error of a trace step.
func openLoop(n int, at func(i int) time.Duration, do func(i int, intended time.Time) func() error) ([]float64, error) {
	type job struct {
		i        int
		intended time.Time
	}
	// Sized to the whole schedule so the generator never blocks on a busy
	// pool: the queue, not the generator, absorbs a stall.
	queue := make(chan job, n)
	traced := make(chan func() error, n)
	tracerDone := make(chan error, 1)
	go func() {
		var first error
		for f := range traced {
			if err := f(); err != nil && first == nil {
				first = err
			}
		}
		tracerDone <- first
	}()
	var wg sync.WaitGroup
	for w := 0; w < connections(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if f := do(j.i, j.intended); f != nil {
					traced <- f
				}
			}
		}()
	}
	lags := make([]float64, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		intended := start.Add(at(i))
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		lags[i] = float64(time.Since(intended)) / float64(time.Millisecond)
		queue <- job{i: i, intended: intended}
	}
	close(queue)
	wg.Wait()
	close(traced)
	return lags, <-tracerDone
}

// halfCounters are the counters bracketed over the untraced half of a
// traced run.
type halfCounters struct {
	engine   engineDelta
	mallocs  float64   // heap allocations
	pauses   []float64 // GC pauses, ms
	symbolic float64   // symbolic analyses (linalg.SymbolicAnalyses)
}

// measureHalf runs the untraced half of a traced run against engine e and
// returns what it cost.
func measureHalf(e *service.Engine, run func()) halfCounters {
	sym := linalg.SymbolicAnalyses()
	mem := startMemWindow()
	w := startStatsWindow(e)
	run()
	c := halfCounters{engine: w.end()}
	c.mallocs, c.pauses = mem.end()
	c.symbolic = float64(linalg.SymbolicAnalyses() - sym)
	return c
}

// setHalfLayers reports the engine, cache, symbolic and runtime counters of
// an untraced half that served ops operations and asked the engine for
// ipSolves interior-point solves.
func (r *report) setHalfLayers(c halfCounters, ops int, ipSolves float64) {
	r.setEngineLayers(c.engine, ops)
	r.set("linalg.symbolic_per_solve", ratio(c.symbolic, ipSolves), "count", int(ipSolves))
	r.setRuntime(c.mallocs, ops, c.pauses)
}

// forEach calls f(0..n-1) on one goroutine per core and returns the first
// error. Each call must touch only its own index's state.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	closedLoop(connections(), n, func(i int) { errs[i] = f(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs `workers` callers that each send their next job as soon
// as the previous one completes, until jobs 0..n-1 are done. Jobs are
// handed out in index order.
func closedLoop(workers, n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// statsWindow brackets an engine's counters over a measured phase and
// samples its backlog gauge.
type statsWindow struct {
	e          *service.Engine
	before     service.Stats
	sHits      uint64
	sMisses    uint64
	kHits      uint64
	kMisses    uint64
	stop       chan struct{}
	done       chan struct{}
	backlogMax atomic.Int64
}

func startStatsWindow(e *service.Engine) *statsWindow {
	w := &statsWindow{e: e, before: e.Stats(), stop: make(chan struct{}), done: make(chan struct{})}
	sc := e.Structures()
	w.sHits, w.sMisses = sc.Hits(), sc.Misses()
	w.kHits, w.kMisses = sc.Kernels().Hits(), sc.Kernels().Misses()
	go func() {
		defer close(w.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if b := e.Stats().Backlog; b > w.backlogMax.Load() {
					w.backlogMax.Store(b)
				}
			}
		}
	}()
	return w
}

// engineDelta is what an engine did during a statsWindow.
type engineDelta struct {
	hits, misses, coalesced, shed, degraded float64
	structHits, structMisses                float64
	kernelHits, kernelMisses                float64
	backlogMax                              float64
}

func (w *statsWindow) end() engineDelta {
	close(w.stop)
	<-w.done
	a := w.e.Stats()
	sc := w.e.Structures()
	return engineDelta{
		hits:         float64(a.Hits - w.before.Hits),
		misses:       float64(a.Misses - w.before.Misses),
		coalesced:    float64(a.Coalesced - w.before.Coalesced),
		shed:         float64(a.Shed + a.TenantRejections - w.before.Shed - w.before.TenantRejections),
		degraded:     float64(a.Degraded - w.before.Degraded),
		structHits:   float64(sc.Hits() - w.sHits),
		structMisses: float64(sc.Misses() - w.sMisses),
		kernelHits:   float64(sc.Kernels().Hits() - w.kHits),
		kernelMisses: float64(sc.Kernels().Misses() - w.kMisses),
		backlogMax:   float64(w.backlogMax.Load()),
	}
}

// setEngineLayers reports the service and cache counters of an untraced
// phase that served ops requests.
func (r *report) setEngineLayers(d engineDelta, ops int) {
	r.set("service.instance_hit_ratio", ratio(d.hits, d.hits+d.misses), "ratio", int(d.hits+d.misses))
	r.set("service.coalesced_ratio", ratio(d.coalesced, d.misses), "ratio", int(d.misses))
	r.set("service.backlog_max", d.backlogMax, "count", ops)
	r.set("service.shed_ratio", ratio(d.shed, float64(ops)), "ratio", ops)
	r.set("service.degraded_ratio", ratio(d.degraded, float64(ops)), "ratio", ops)
	r.set("plan.structure_hit_ratio", ratio(d.structHits, d.structHits+d.structMisses), "ratio", int(d.structHits+d.structMisses))
	r.set("core.kernel_hit_ratio", ratio(d.kernelHits, d.kernelHits+d.kernelMisses), "ratio", int(d.kernelHits+d.kernelMisses))
}
