package pipeline

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// upTo returns 0, 1, …, n-1.
func upTo(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// counter feeds 0, 1, 2, … on an unbuffered channel until pp is
// cancelled, then closes it: an endless input for the cancellation tests.
func counter(pp *Pipeline) <-chan int {
	ch := make(chan int)
	go func() {
		defer close(ch)
		for i := 0; ; i++ {
			select {
			case ch <- i:
			case <-pp.ctx.Done():
				return
			}
		}
	}()
	return ch
}

// TestLinear checks a two-stage pipeline transforms every item exactly
// once and Wait returns nil on clean completion.
func TestLinear(t *testing.T) {
	pp := New(context.Background())
	src := Items(upTo(100))
	doubled := Attach(pp, Stage[int, int]{
		Name:    "double",
		Workers: 4,
		Do: func(ctx context.Context, v int, emit func(int) error) error {
			return emit(v * 2)
		},
	}, src)
	var got []int
	for v := range doubled {
		got = append(got, v)
	}
	if err := pp.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d items, want 100", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

// TestErrorPropagation checks a failing stage cancels the whole
// pipeline, Wait returns the underlying error through errors.Is, and
// the stage name is attached.
func TestErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	pp := New(context.Background())
	src := counter(pp)
	out := Attach(pp, Stage[int, int]{
		Name:    "fail",
		Workers: 2,
		Do: func(ctx context.Context, v int, emit func(int) error) error {
			if v == 7 {
				return sentinel
			}
			return emit(v)
		},
	}, src)
	for range out {
	}
	err := pp.Wait()
	if !errors.Is(err, sentinel) {
		t.Fatalf("Wait = %v, want errors.Is(..., sentinel)", err)
	}
	var se *Error
	if !errors.As(err, &se) || se.Stage != "fail" {
		t.Fatalf("Wait = %v, want *Error from stage %q", err, "fail")
	}
}

// TestParentCancel checks that cancelling the parent context unwinds
// all stages — including emitters blocked on a full output channel —
// and Wait reports the cancellation rather than clean success.
func TestParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pp := New(ctx)
	var started atomic.Int64
	src := counter(pp)
	out := Attach(pp, Stage[int, int]{
		Name: "slow",
		Do: func(ctx context.Context, v int, emit func(int) error) error {
			started.Add(1)
			return emit(v)
		},
	}, src)
	<-out // ensure the pipeline is flowing, then abandon the channel
	cancel()
	if err := pp.Wait(); err == nil {
		t.Fatal("Wait = nil after parent cancel, want error")
	}
	if started.Load() == 0 {
		t.Fatal("stage never ran")
	}
}

// TestFailUnblocksEmitters checks the documented consumer contract:
// calling Fail before abandoning the output channel releases workers
// blocked in emit.
func TestFailUnblocksEmitters(t *testing.T) {
	stop := errors.New("consumer gave up")
	pp := New(context.Background())
	src := counter(pp)
	out := Attach(pp, Stage[int, int]{
		Name: "id",
		Do: func(ctx context.Context, v int, emit func(int) error) error {
			return emit(v)
		},
	}, src)
	<-out
	pp.Fail(stop)
	done := make(chan error, 1)
	go func() { done <- pp.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, stop) {
			t.Fatalf("Wait = %v, want %v", err, stop)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung: emitters leaked after Fail")
	}
}

// TestZeroItems checks an empty input still closes downstream
// channels and completes cleanly.
func TestZeroItems(t *testing.T) {
	pp := New(context.Background())
	src := Items([]int(nil))
	out := Attach(pp, Stage[int, int]{
		Name: "id",
		Do: func(ctx context.Context, v int, emit func(int) error) error {
			return emit(v)
		},
	}, src)
	n := 0
	for range out {
		n++
	}
	if n != 0 {
		t.Fatalf("got %d items from empty input", n)
	}
	if err := pp.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestFanOutOrderIndependence checks items survive a multi-worker
// stage exactly once even when workers race.
func TestFanOutOrderIndependence(t *testing.T) {
	pp := New(context.Background())
	const n = 500
	src := Items(upTo(n))
	out := Attach(pp, Stage[int, int]{
		Name:    "work",
		Workers: 8,
		Buffer:  8,
		Do: func(ctx context.Context, v int, emit func(int) error) error {
			return emit(v)
		},
	}, src)
	seen := make(map[int]int)
	for v := range out {
		seen[v]++
	}
	if err := pp.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct items, want %d", len(seen), n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("item %d seen %d times", v, c)
		}
	}
}
