package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/plan"
)

// The traced run measures each layer from outside: it re-runs requests
// in-process through the layers' public entry points and records a span
// around every call. Spans stay in memory and are written out when the
// benchmark ends.

// span is one timed call. Spans of one request share req; parent is the
// index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(req int64, parent int, name string) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// finish closes span i and returns its duration in milliseconds.
func (r *recorder) finish(i int) float64 {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
	return float64(now-r.spans[i].Start) / float64(time.Millisecond)
}

// selfMS returns, per span name, the summed self time in milliseconds:
// each span's duration minus the part of it its child spans cover.
func (r *recorder) selfMS() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for i, s := range r.spans {
		covered := int64(0)
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		lo, hi := int64(-1), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[s.Name] += float64(s.End-s.Start-covered) / float64(time.Millisecond)
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tally accumulates the per-layer measurements of a traced run. It is
// safe for concurrent use.
type tally struct {
	mu     sync.Mutex
	times  samples            // name → per-call milliseconds
	counts map[string]float64 // name → summed count
}

func newTally() *tally { return &tally{times: samples{}, counts: map[string]float64{}} }

func (t *tally) time(name string, ms float64) {
	t.mu.Lock()
	t.times.add(name, ms)
	t.mu.Unlock()
}

func (t *tally) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tally) peak(name string, v float64) {
	t.mu.Lock()
	if v > t.counts[name] {
		t.counts[name] = v
	}
	t.mu.Unlock()
}

// dispatchTraced re-runs the service's dispatch for one instance through
// the public entry points, in service.streamDispatch's order — NewRouter,
// SplitComponents, Route per component, Solve per component, and
// MergeSolutions — with a span around each call. Per-component solver
// counters land in t keyed by the routed solver (ComponentPlan.Solver).
// It returns the merged solution and the summed dispatch time in ms.
func dispatchTraced(rec *recorder, t *tally, req int64, parent int, prob *core.Problem, mdl model.Model, structs *plan.StructureCache) (*core.Solution, float64, error) {
	root := rec.begin(req, parent, "dispatch")
	s := rec.begin(req, root, "plan.router")
	rt, err := plan.NewRouter(mdl, plan.Options{Structures: structs})
	routeMS := rec.finish(s)
	if err != nil {
		rec.finish(root)
		return nil, 0, err
	}
	s = rec.begin(req, root, "plan.split")
	comps, err := prob.SplitComponents()
	t.time("plan.split", rec.finish(s))
	if err != nil {
		rec.finish(root)
		return nil, 0, err
	}
	cps := make([]plan.ComponentPlan, len(comps))
	for i, c := range comps {
		s = rec.begin(req, root, "plan.route")
		cps[i], err = rt.Route(c, nil)
		routeMS += rec.finish(s)
		if err != nil {
			rec.finish(root)
			return nil, 0, err
		}
	}
	t.time("plan.route", routeMS)
	sols := make([]*core.Solution, len(comps))
	solveMS := 0.0
	for i, c := range comps {
		solver := cps[i].Solver
		sym := linalg.SymbolicAnalyses()
		s = rec.begin(req, root, "core.solve."+solver)
		sols[i], err = rt.Solve(c.Prob, cps[i])
		ms := rec.finish(s)
		if err != nil {
			rec.finish(root)
			return nil, 0, err
		}
		solveMS += ms
		st := sols[i].Stats
		t.time("core.solve."+solver, ms)
		t.count("solves."+solver, 1)
		t.count("newton."+solver, float64(st.Newton))
		t.count("pivots."+solver, float64(st.Pivots))
		t.count("nodes."+solver, float64(st.Nodes))
		t.peak("frontier_peak", float64(st.FrontierPeak))
		t.count("symbolic."+solver, float64(linalg.SymbolicAnalyses()-sym))
	}
	t.time("core.solve", solveMS)
	t.count("components", float64(len(comps)))
	t.count("requests", 1)
	s = rec.begin(req, root, "plan.merge")
	merged, err := prob.MergeSolutions(comps, sols)
	t.time("plan.merge", rec.finish(s))
	return merged, rec.finish(root), err
}
