package reclaim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/workload"
)

// registryReplay builds one of the benchmark registry's reclaim instances
// (internal/benchkit): the family generated from seed, the continuous
// model at smax 2 and 1.4× the minimal deadline, and the completion events
// of its planned schedule under the registry's default jitter, in Trace
// order.
func registryReplay(t *testing.T, family string, n int, seed int64) (*core.Problem, *core.Solution, []CompletionEvent) {
	t.Helper()
	prob, sol := buildInstance(t, family, n, seed, testModels(t)["continuous"], 1.4)
	jit := workload.Jitter{Seed: seed, Rate: 0.5, Early: 0.35, Late: 0.05}
	factors, err := jit.Factors(prob.G.N())
	if err != nil {
		t.Fatal(err)
	}
	events, err := Trace(prob.G, sol.Schedule, factors)
	if err != nil {
		t.Fatal(err)
	}
	return prob, sol, events
}

// TestSessionsHoldStructureCacheCapacity shares one capacity-4 structure
// cache between two sessions that are never closed and feeds them 40
// completions each, alternating: the cache never holds more entries than
// its capacity.
func TestSessionsHoldStructureCacheCapacity(t *testing.T) {
	m := testModels(t)["continuous"]
	const capacity = 4
	sc := plan.NewStructureCache(capacity)
	type replay struct {
		s      *Session
		events []CompletionEvent
	}
	var replays []replay
	for _, in := range []struct {
		family string
		n      int
		seed   int64
	}{{"layered", 36, 40}, {"multi", 4, 41}} {
		prob, sol, events := registryReplay(t, in.family, in.n, in.seed)
		s, err := NewSession(prob, m, sol, Options{Structures: sc})
		if err != nil {
			t.Fatal(err)
		}
		replays = append(replays, replay{s, events[:min(40, len(events))]})
	}
	for k := 0; k < 40; k++ {
		for i, r := range replays {
			if k >= len(r.events) {
				continue
			}
			if _, err := r.s.ApplyEvent(r.events[k]); err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("session %d event %d: %v", i, k, err)
			}
			if n := sc.Len(); n > capacity {
				t.Fatalf("session %d event %d: structure cache holds %d entries, capacity %d", i, k, n, capacity)
			}
		}
	}
	if sc.Hits()+sc.Misses() == 0 {
		t.Fatal("the sessions never consulted the structure cache")
	}
}

// TestWarmResidualsTakeFewerNewtonSteps is the warm start's gate, on
// iteration counts rather than wall-clock time. On the registry's
// warm/cold reclaim instances, the residuals left by the 1st, 2nd, 3rd,
// 5th and 8th deviating completion are each solved twice on the
// components the session's replan re-solves: warm, seeded from the speeds
// their tasks ran at before the event, and cold. The energies agree
// within 1e-9, and the warm solves take at most 0.9× the cold solves'
// primal-dual iterations on each instance.
func TestWarmResidualsTakeFewerNewtonSteps(t *testing.T) {
	sampled := []int{1, 2, 3, 5, 8}
	errDeferred := errors.New("replan deferred")
	for _, in := range []struct {
		family string
		n      int
		seed   int64
	}{{"layered", 36, 40}, {"multi", 4, 41}, {"layered", 128, 56}} {
		t.Run(fmt.Sprintf("%s-%d-continuous-reclaim", in.family, in.n), func(t *testing.T) {
			prob, sol, events := registryReplay(t, in.family, in.n, in.seed)
			s, err := NewSession(prob, testModels(t)["continuous"], sol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			deviating, warm, cold := 0, 0, 0
			for _, ev := range events {
				// A refusing gate records the completion and defers its
				// replan, so the residual still carries the pre-event
				// speeds; the session's own replan then runs as usual.
				res, err := s.ApplyEventGated(ev, func() (func(), error) { return nil, errDeferred })
				if res.Clean {
					if err != nil {
						t.Fatal(err)
					}
					continue
				}
				if !errors.Is(err, errDeferred) {
					t.Fatalf("event %+v: %v", ev, err)
				}
				deviating++
				if slices.Contains(sampled, deviating) {
					w, c := solvePendingResidual(t, s, false), solvePendingResidual(t, s, true)
					if math.Abs(w.Energy-c.Energy) > 1e-9*c.Energy {
						t.Fatalf("deviation %d: warm energy %.12g, cold %.12g", deviating, w.Energy, c.Energy)
					}
					warm += w.Stats.Newton
					cold += c.Stats.Newton
				}
				if deviating == sampled[len(sampled)-1] {
					break
				}
				s.mu.Lock()
				_, err = s.replanLocked()
				s.mu.Unlock()
				if err != nil {
					t.Fatalf("deviation %d: replan: %v", deviating, err)
				}
			}
			if deviating < sampled[len(sampled)-1] {
				t.Fatalf("only %d deviating completions", deviating)
			}
			t.Logf("Newton iterations: warm %d, cold %d", warm, cold)
			if float64(warm) > 0.9*float64(cold) {
				t.Errorf("warm residual solves took %d Newton iterations, above 0.9× the cold %d", warm, cold)
			}
		})
	}
}

// solvePendingResidual solves the residual of s's deferred replan on the
// components that replan would re-solve, warm from the tasks' current
// speeds or cold, and returns the merged residual solution.
func solvePendingResidual(t *testing.T, s *Session, cold bool) *core.Solution {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	resProb, back, res, err := s.residualLocked()
	if err != nil {
		t.Fatal(err)
	}
	res.Cold = cold
	rp, err := plan.AnalyzeResidual(resProb, s.mdl, plan.Options{}, res)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := plan.Replan(rp, s.dirtyLocked(rp, back), plan.Observer{})
	if err != nil {
		t.Fatal(err)
	}
	return rr.Solution
}
