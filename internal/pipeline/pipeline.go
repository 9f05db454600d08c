// Package pipeline is a small generic stage framework for component
// dispatch: a Pipeline owns a context, stages are linked by channels,
// and each stage runs a fixed pool of workers that consume items from
// an input channel and emit zero or more outputs downstream.
//
// The design goals, in order:
//
//   - Backpressure. Stage output channels are bounded (Buffer); a slow
//     downstream stage stalls upstream workers instead of buffering
//     unbounded work.
//   - Error propagation. The first error from any stage cancels the
//     pipeline context; every other stage observes the cancellation on
//     its next receive or emit and drains out. Wait returns that first
//     error (the cancellation *cause*), not a generic "context canceled".
//   - Cancellation from outside. The parent context passed to New flows
//     into every stage, so a disconnecting HTTP client (request context
//     done) tears the whole pipeline down.
//
// Stages are attached with the free function Attach rather than a method
// because Go methods cannot introduce type parameters. The first stage
// reads any channel; Items makes one from a slice known up front.
//
// Typical shape:
//
//	pp := pipeline.New(ctx)
//	planned := pipeline.Attach(pp, pipeline.Stage[int, planned]{...}, pipeline.Items(ids))
//	solved := pipeline.Attach(pp, pipeline.Stage[planned, solved]{...}, planned)
//	for s := range solved { ... }
//	err := pp.Wait()
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/resilience"
)

// Pipeline ties a set of stages to one cancellable context. Zero or
// more stages are attached with Attach; Wait blocks until all
// of them finish and reports the first failure.
type Pipeline struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup
}

// New creates a pipeline whose stages all run under a context derived
// from parent. Cancelling parent cancels every stage.
func New(parent context.Context) *Pipeline {
	ctx, cancel := context.WithCancelCause(parent)
	return &Pipeline{ctx: ctx, cancel: cancel}
}

// Fail cancels the pipeline with the given cause. Safe to call from
// any goroutine; the first cause wins. Consumers that stop reading a
// stage's output early MUST call Fail (or cancel the parent context)
// before abandoning the channel, otherwise blocked emitters would leak.
func (p *Pipeline) Fail(err error) {
	if err == nil {
		err = context.Canceled
	}
	p.cancel(err)
}

// Wait blocks until every attached stage has finished, then releases
// the pipeline's context and returns the first error that cancelled it
// (nil on clean completion). A cancellation without an explicit cause
// — e.g. the parent request context dying on client disconnect —
// surfaces as context.Canceled, never as silent success.
func (p *Pipeline) Wait() error {
	p.wg.Wait()
	var err error
	if p.ctx.Err() != nil {
		err = context.Cause(p.ctx)
	}
	p.cancel(context.Canceled) // release resources; no-op if already cancelled
	return err
}

// A Stage transforms items of type I into items of type O. Workers
// goroutines run concurrently, each pulling from the stage input and
// calling Do; Do may emit any number of outputs (including zero) per
// input. When Do returns an error the pipeline is cancelled with a
// stage-tagged wrapper preserving errors.Is/As on the underlying error.
type Stage[I, O any] struct {
	// Name tags errors originating in this stage.
	Name string
	// Workers is the number of concurrent Do invocations (default 1).
	Workers int
	// Buffer is the capacity of the stage's output channel (default 0,
	// i.e. rendezvous — full backpressure).
	Buffer int
	// Do processes one input item. emit forwards an output downstream
	// and fails fast (returning the pipeline's cancellation cause) once
	// the pipeline is cancelled; Do should return that error unchanged.
	Do func(ctx context.Context, item I, emit func(O) error) error
}

// Attach links st to the pipeline, consuming in and returning the
// stage's output channel. The output channel is closed when all
// workers have finished (input exhausted or pipeline cancelled).
func Attach[I, O any](p *Pipeline, st Stage[I, O], in <-chan I) <-chan O {
	workers := st.Workers
	if workers < 1 {
		workers = 1
	}
	out := make(chan O, st.Buffer)
	emit := func(o O) error {
		select {
		case out <- o:
			return nil
		case <-p.ctx.Done():
			return cause(p.ctx)
		}
	}
	// The last worker to finish closes the output channel.
	var live atomic.Int32
	live.Store(int32(workers))
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			defer func() {
				if live.Add(-1) == 0 {
					close(out)
				}
			}()
			for {
				var item I
				var ok bool
				select {
				case item, ok = <-in:
					if !ok {
						return
					}
				case <-p.ctx.Done():
					return
				}
				if err := runStage(p.ctx, st, item, emit); err != nil {
					p.cancel(stageError(st.Name, err))
					return
				}
			}
		}()
	}
	return out
}

// runStage invokes one Do call behind the fault-injection hook and a
// recover barrier: a panicking stage fails the pipeline with an
// internal error instead of crashing the process — the stage goroutines
// are spawned here, out of reach of any HTTP-layer recovery.
func runStage[I, O any](ctx context.Context, st Stage[I, O], item I, emit func(O) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = resilience.RecoverPanic("pipeline stage "+st.Name, r)
		}
	}()
	if err := resilience.Fire(resilience.SitePipeline); err != nil {
		return err
	}
	return st.Do(ctx, item, emit)
}

// Items returns a closed channel holding items in order: a source for a
// first stage whose input is known up front, with no feed goroutine.
func Items[T any](items []T) <-chan T {
	ch := make(chan T, len(items))
	for _, it := range items {
		ch <- it
	}
	close(ch)
	return ch
}

// cause returns the context's cancellation cause, falling back to the
// plain context error.
func cause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}

// stageError tags err with the stage name unless it is already a
// cancellation passed back through Do (which would double-wrap on
// every stage it crosses).
func stageError(name string, err error) error {
	if err == context.Canceled || err == context.DeadlineExceeded {
		return err
	}
	if _, ok := err.(*Error); ok {
		return err
	}
	return &Error{Stage: name, Err: err}
}

// Error tags a stage failure with the stage's name. Unwrap preserves
// errors.Is/errors.As against the underlying error.
type Error struct {
	Stage string
	Err   error
}

func (e *Error) Error() string { return fmt.Sprintf("pipeline stage %q: %v", e.Stage, e.Err) }
func (e *Error) Unwrap() error { return e.Err }
