package plan

import (
	"context"
	"errors"
	"runtime"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// Observer watches one run of the component executor. Both callbacks run
// on the goroutine that called Execute, Replan, or Solve, one at a time; an
// error from either cancels the run and is returned. Nil callbacks are
// skipped. Read only the reported entry of pl.Components: later ones may
// still be routing.
type Observer struct {
	// Plan fires once per component Solve routes, in component order, as
	// soon as the component is routed — possibly while earlier components
	// are still solving.
	Plan func(pl *Plan, i int) error
	// Component fires once per solved component the moment its solver
	// returns (after the component's Plan call). Components a replan
	// replays verbatim are not reported.
	Component func(pl *Plan, i int, sol *core.Solution) error
}

// Execute runs the plan on the component executor: every component is
// solved with its routed solver — concurrently on up to Options.Workers
// solver goroutines — and the solutions merge back onto the original
// execution graph (energy sums, speeds stitch by task ID). A single-component plan
// returns its component's solution unchanged, so connected instances
// behave exactly as an unplanned solve would.
func (pl *Plan) Execute() (*core.Solution, error) {
	return pl.run(context.TODO(), false, nil, Observer{})
}

// Solve plans and solves p in one pass. Unlike Analyze + Execute, the
// components are routed on the executor's route stage, which runs ahead of
// the solvers, so obs sees each component's routing as soon as it exists
// and each solution the moment its solver returns. ctx cancellation stops
// the components not yet started. The returned plan has every component
// routed and explains the solution.
func Solve(ctx context.Context, p *core.Problem, m model.Model, opts Options, obs Observer) (*Plan, *core.Solution, error) {
	pl, err := newPlan(p, m, opts, nil)
	if err != nil {
		return nil, nil, err
	}
	sol, err := pl.run(ctx, true, nil, obs)
	if err != nil {
		return nil, nil, err
	}
	return pl, sol, nil
}

// run is the component executor behind Execute, Replan, and Solve. It
// solves every component without a solution in sols (nil: all) on a
// pipeline: a route stage when route is set, one worker running ahead of
// the solvers, then a solve stage of up to Options.Workers goroutines
// (default GOMAXPROCS) that fires the solver fault site before each solve.
// The calling goroutine relays the observer events and merges with the
// residual's release times. A solver panic fails the run with an error
// wrapping resilience.ErrPanic; running solves finish before run returns.
func (pl *Plan) run(ctx context.Context, route bool, sols []*core.Solution, obs Observer) (*core.Solution, error) {
	if sols == nil {
		sols = make([]*core.Solution, len(pl.comps))
	}
	var todo []int
	for i, sol := range sols {
		if sol == nil {
			todo = append(todo, i)
		}
	}
	workers := pl.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var routed chan int // stays nil (never ready) unless Plan events flow
	if route && obs.Plan != nil {
		routed = make(chan int)
	}
	pp := pipeline.New(ctx)
	ready := pipeline.Items(todo)
	if route {
		ready = pipeline.Attach(pp, pipeline.Stage[int, int]{
			Name:   "route",
			Buffer: len(todo),
			Do: func(ctx context.Context, i int, emit func(int) error) error {
				cp, err := pl.rt.Route(pl.comps[i], nil)
				if err != nil {
					return err
				}
				pl.Components[i] = cp
				if routed != nil {
					select {
					case routed <- i:
					case <-ctx.Done():
						return context.Cause(ctx)
					}
				}
				return emit(i)
			},
		}, ready)
	}
	solved := pipeline.Attach(pp, pipeline.Stage[int, int]{
		Name:    "solve",
		Workers: min(workers, len(todo)),
		Do: func(_ context.Context, i int, emit func(int) error) (err error) {
			if err := resilience.Fire(resilience.SiteSolver); err != nil {
				return err
			}
			if sols[i], err = pl.rt.Solve(pl.comps[i].Prob, pl.Components[i]); err != nil {
				return err
			}
			return emit(i)
		},
	}, ready)

	var obsErr error
	for solved != nil && obsErr == nil {
		select {
		case i := <-routed:
			obsErr = obs.Plan(pl, i)
		case i, ok := <-solved:
			if !ok {
				solved = nil
			} else if obs.Component != nil {
				obsErr = obs.Component(pl, i, sols[i])
			}
		}
	}
	if obsErr != nil {
		pp.Fail(obsErr) // unblocks the stages this goroutine stopped reading
	}
	if err := pp.Wait(); err != nil {
		var se *pipeline.Error
		if errors.As(err, &se) {
			err = se.Err // report the solver's error as an inline solve would
		}
		return nil, err
	}
	var release []float64
	if pl.res != nil {
		release = pl.res.Release
	}
	return pl.prob.MergeSolutionsAt(pl.comps, sols, release)
}

// Solve runs one routed component: the uniform heuristic when overload
// degraded it, otherwise core.SolveRoute on the component's row, reusing
// the shape (class, SP expression) recorded during Route. Residual
// components carry release times and warm seeds into the solver options;
// both leave every solver's result untouched (releases are extra
// constraints, warm starts only shrink the work).
func (rt *Router) Solve(p *core.Problem, cp ComponentPlan) (*core.Solution, error) {
	if !cp.Degraded {
		return p.SolveRoute(rt.m, cp.Solver, cp.shape, rt.options(cp.release, cp.warm))
	}
	// Overload reroute: one uniform speed for the whole component, with the
	// W/CPW critical-path bound Route attached. Cheapest feasible schedule
	// the model admits — O(n), no search, no interior point.
	sol, err := p.SolveUniform(rt.m)
	if err != nil {
		return nil, err
	}
	sol.Stats.Algorithm = "degraded-uniform"
	sol.Stats.BoundFactor = cp.BoundFactor
	return sol, nil
}
