package reclaim

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

// TestConcurrentSessionsRace replays many sessions at once — mixed models,
// jittered — while hammering one shared session with concurrent events and
// reads. Run under -race (make race / CI), this is the data-race gate for
// the whole reclaiming runtime.
func TestConcurrentSessionsRace(t *testing.T) {
	models := testModels(t)
	var wg sync.WaitGroup

	// Independent sessions replaying concurrently.
	for i, tc := range propertyCases() {
		if testing.Short() && i%3 != 0 {
			continue
		}
		m := models[tc.model]
		prob, sol := buildInstance(t, tc.family, tc.n, tc.seed, m, 1.6)
		s, err := NewSession(prob, m, sol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jit := workload.Jitter{Seed: tc.seed, Rate: 0.5, Early: 0.3, Late: 0.05}
		factors, err := jit.Factors(prob.G.N())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Replay(factors); err != nil {
				t.Errorf("replay: %v", err)
			}
		}()
	}

	// One shared session: writers race valid and invalid events, readers
	// race snapshots. Invalid events must be rejected without corrupting
	// anything; at most one writer wins each valid completion.
	m := models["continuous"]
	prob, sol := buildInstance(t, "layered", 16, 77, m, 1.7)
	shared, err := NewSession(prob, m, sol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Trace(prob.G, sol.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, ev := range events {
				ev.ActualDuration *= 0.9 // deviate: force replans under contention
				if _, err := shared.ApplyEvent(ev); err != nil &&
					!errors.Is(err, ErrBadEvent) && !errors.Is(err, ErrSessionDone) {
					t.Errorf("shared event %+v: %v", ev, err)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				shared.Energy()
				shared.Stats()
				shared.Remaining()
				if _, err := shared.Schedule(); err != nil {
					t.Errorf("schedule snapshot: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	if !shared.Done() {
		t.Fatalf("shared session incomplete: %d remaining", shared.Remaining())
	}
	final, err := shared.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := final.Validate(final.Makespan, nil, 1e-9); err != nil {
		t.Fatalf("shared session corrupted: %v", err)
	}
	st := shared.Stats()
	if st.Events != prob.G.N() {
		t.Fatalf("accepted %d events for %d tasks", st.Events, prob.G.N())
	}
}

// TestCloseRacingReplans closes a session while its events replan: Close
// must not wait for them, and a closed session pins nothing more, so no
// structure pin outlives it.
func TestCloseRacingReplans(t *testing.T) {
	m := testModels(t)["continuous"]
	prob, sol := buildInstance(t, "layered", 16, 77, m, 1.7)
	sc := plan.NewStructureCache(64)
	s, err := NewSession(prob, m, sol, Options{Structures: sc})
	if err != nil {
		t.Fatal(err)
	}
	events, err := Trace(prob.G, sol.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, ev := range events {
			ev.ActualDuration *= 0.9 // deviate: every event replans and pins
			if _, err := s.ApplyEvent(ev); err != nil {
				t.Errorf("event %+v: %v", ev, err)
				return
			}
		}
	}()
	s.Close()
	<-done
	if n := sc.Pinned(); n != 0 {
		t.Fatalf("%d structure pins outlived Close", n)
	}
}
