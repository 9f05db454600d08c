// Package resilience is the serving layer's overload-and-failure toolkit:
// a weighted fair-queuing admission controller (Admission) that keeps one
// flooding tenant from starving the rest of the worker pool, and a
// build-tag-free fault-injection hook (Faults) that tests and the
// energyload -chaos mode use to drive errors, latency spikes, and panics
// into named sites — the solver, the session store, pipeline stages, the
// mmap reader — without recompiling anything.
//
// The package is a leaf: it imports only the standard library, so every
// layer (core, graph, pipeline, reclaim, service) can call Fire at its
// own injection site.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Site names a fault-injection point. Each package fires its own site;
// a Faults plan configures rates per site.
type Site string

const (
	// SiteSolver fires once per component solve, in the solve stage of
	// the planner's component executor: service solves and streams,
	// Plan.Execute, and session replans (not core.SolvePlanned).
	SiteSolver Site = "solver"
	// SiteStore fires on session-store operations (create, lookup).
	SiteStore Site = "store"
	// SitePipeline fires once per item in every pipeline stage worker:
	// the planner executor's route and solve stages (service solves and
	// streams, Plan.Execute, session replans) and the solve stage of
	// core.SolvePlanned. The reference solve stays on this hook; only
	// tests and energyload -chaos arm faults, and neither calls it.
	SitePipeline Site = "pipeline"
	// SiteMmap fires when a memory-mapped instance file is opened.
	SiteMmap Site = "mmap"
)

// Sentinels of the injection machinery.
var (
	// ErrInjected tags every error Fire fabricates. Transport layers map it
	// to internal_error — an injected fault is indistinguishable from a real
	// dependency failure by design.
	ErrInjected = errors.New("resilience: injected fault")
	// ErrPanic tags an error produced by RecoverPanic from a recovered
	// panic (injected or real).
	ErrPanic = errors.New("resilience: recovered panic")
)

// SiteFaults configures one site's injection behavior. Rates are
// probabilities per Fire call, drawn in the order panic → error → latency
// (one draw decides; at most one fault per call). Times, when positive,
// caps the number of injections at the site — e.g. "panic exactly once"
// for a containment regression test.
type SiteFaults struct {
	// ErrorRate is the probability of returning an ErrInjected error.
	ErrorRate float64
	// LatencyRate is the probability of sleeping Latency before returning
	// nil (a slow dependency, not a failed one).
	LatencyRate float64
	// Latency is the injected sleep duration.
	Latency time.Duration
	// PanicRate is the probability of panicking.
	PanicRate float64
	// Times caps total injections at this site (0 = unlimited).
	Times int64
}

// Faults is a seeded fault plan over sites. Construct with NewFaults and
// activate with Arm; a nil plan (or an unconfigured site) injects nothing.
// Draws are serialized under a mutex, so a fixed seed yields a
// deterministic injection sequence for a deterministic call order.
type Faults struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites map[Site]*siteState
}

type siteState struct {
	cfg   SiteFaults
	fired int64
}

// NewFaults builds a plan from per-site configurations. Sites absent from
// the map never inject.
func NewFaults(seed int64, sites map[Site]SiteFaults) *Faults {
	f := &Faults{rng: rand.New(rand.NewSource(seed)), sites: make(map[Site]*siteState, len(sites))}
	for s, cfg := range sites {
		f.sites[s] = &siteState{cfg: cfg}
	}
	return f
}

// Injected returns how many faults (of any kind) this plan has injected at
// the site so far.
func (f *Faults) Injected(site Site) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st, ok := f.sites[site]; ok {
		return st.fired
	}
	return 0
}

// armed is the process-wide active plan. Process-global (not per-engine)
// because injection sites live in leaf packages — the mmap reader and the
// pipeline framework have no engine to consult. Tests that arm a plan must
// disarm it (t.Cleanup) and must not run in parallel with other
// fault-sensitive tests.
var armed atomic.Pointer[Faults]

// Arm activates f process-wide; Arm(nil) deactivates injection.
func Arm(f *Faults) {
	if f == nil {
		armed.Store(nil)
		return
	}
	armed.Store(f)
}

// Disarm deactivates injection.
func Disarm() { armed.Store(nil) }

// Fire consults the armed plan at the given site: it may sleep (latency
// fault), return an error wrapping ErrInjected, or panic. With no plan
// armed it is two atomic loads and returns nil — cheap enough to leave in
// every hot path unconditionally, which is the point: no build tags, no
// test-only seams.
func Fire(site Site) error {
	f := armed.Load()
	if f == nil {
		return nil
	}
	return f.fire(site)
}

func (f *Faults) fire(site Site) error {
	f.mu.Lock()
	st, ok := f.sites[site]
	if !ok || (st.cfg.Times > 0 && st.fired >= st.cfg.Times) {
		f.mu.Unlock()
		return nil
	}
	u := f.rng.Float64()
	cfg := st.cfg
	var kind int // 0 none, 1 panic, 2 error, 3 latency
	switch {
	case u < cfg.PanicRate:
		kind = 1
	case u < cfg.PanicRate+cfg.ErrorRate:
		kind = 2
	case u < cfg.PanicRate+cfg.ErrorRate+cfg.LatencyRate:
		kind = 3
	}
	if kind != 0 {
		st.fired++
	}
	f.mu.Unlock()

	switch kind {
	case 1:
		panic(fmt.Sprintf("resilience: injected panic at site %s", site))
	case 2:
		return fmt.Errorf("%w: site %s", ErrInjected, site)
	case 3:
		time.Sleep(cfg.Latency)
	}
	return nil
}

// panicsRecovered counts every panic turned into an error by RecoverPanic,
// across the whole process (the recovery barriers live in leaf packages
// with no engine handle, so the counter is global like the armed plan).
var panicsRecovered atomic.Uint64

// PanicsRecovered returns the process-wide recovered-panic count.
func PanicsRecovered() uint64 { return panicsRecovered.Load() }

// RecoverPanic converts a recovered panic value into an error and counts
// it. Recovery barriers call it from a deferred recover():
//
//	defer func() {
//		if r := recover(); r != nil {
//			err = resilience.RecoverPanic("pipeline stage solve", r)
//		}
//	}()
//
// The returned error wraps ErrPanic, which transport layers classify as
// internal_error — the request fails, the process survives.
func RecoverPanic(site string, r any) error {
	panicsRecovered.Add(1)
	return fmt.Errorf("%w: %s: %v", ErrPanic, site, r)
}
