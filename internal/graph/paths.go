package graph

import "fmt"

// PathAnalysis holds the standard longest-path quantities of a DAG for a
// given assignment of task durations.
type PathAnalysis struct {
	// EarliestFinish[i] is the earliest completion time of task i when every
	// task starts as soon as its predecessors allow.
	EarliestFinish []float64
	// LatestFinish[i] is the latest completion time of task i that still
	// permits every task to finish by the deadline used in the analysis.
	LatestFinish []float64
	// Makespan is the length of the longest duration-weighted path.
	Makespan float64
	// Critical is one longest path, as a task-ID sequence from a source to a
	// sink.
	Critical []int
}

// Analyze computes earliest/latest finish times, the makespan, and one
// critical path, for the given durations. deadline is used for the latest
// times; pass the makespan itself for zero-slack latest times. The graph
// must be acyclic.
func (g *Graph) Analyze(durations []float64, deadline float64) (*PathAnalysis, error) {
	return g.AnalyzeFrom(durations, nil, deadline)
}

// AnalyzeFrom is Analyze with per-task release times: task i may not start
// before release[i] (the residual re-solve constraint — frozen predecessors
// of an executing schedule finished at these times). A nil release means all
// zeros; negative entries are treated as zero.
func (g *Graph) AnalyzeFrom(durations, release []float64, deadline float64) (*PathAnalysis, error) {
	n := g.N()
	if len(durations) != n {
		return nil, fmt.Errorf("graph: %d durations for %d tasks", len(durations), n)
	}
	if release != nil && len(release) != n {
		return nil, fmt.Errorf("graph: %d release times for %d tasks", len(release), n)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	ef := make([]float64, n)
	argmax := make([]int, n)
	for i := range argmax {
		argmax[i] = -1
	}
	makespan := 0.0
	last := -1
	for _, u := range order {
		start := 0.0
		if release != nil && release[u] > 0 {
			start = release[u]
		}
		for _, p := range g.pred[u] {
			if ef[p] > start {
				start = ef[p]
				argmax[u] = p
			}
		}
		ef[u] = start + durations[u]
		if ef[u] > makespan {
			makespan = ef[u]
			last = u
		}
	}
	lf := make([]float64, n)
	for i := range lf {
		lf[i] = deadline
	}
	for k := len(order) - 1; k >= 0; k-- {
		u := order[k]
		for _, s := range g.succ[u] {
			if v := lf[s] - durations[s]; v < lf[u] {
				lf[u] = v
			}
		}
	}
	var critical []int
	for u := last; u >= 0; u = argmax[u] {
		critical = append(critical, u)
	}
	// Reverse to source → sink order.
	for i, j := 0, len(critical)-1; i < j; i, j = i+1, j-1 {
		critical[i], critical[j] = critical[j], critical[i]
	}
	return &PathAnalysis{EarliestFinish: ef, LatestFinish: lf, Makespan: makespan, Critical: critical}, nil
}

// Makespan returns only the duration-weighted longest-path length.
func (g *Graph) Makespan(durations []float64) (float64, error) {
	pa, err := g.Analyze(durations, 0)
	if err != nil {
		return 0, err
	}
	return pa.Makespan, nil
}

// MakespanFrom is Makespan with per-task release times (see AnalyzeFrom).
func (g *Graph) MakespanFrom(durations, release []float64) (float64, error) {
	pa, err := g.AnalyzeFrom(durations, release, 0)
	if err != nil {
		return 0, err
	}
	return pa.Makespan, nil
}

// CriticalPathWeight returns the maximum, over all paths, of the summed task
// weights — i.e. the makespan when every task runs at unit speed.
func (g *Graph) CriticalPathWeight() (float64, error) {
	return g.Makespan(g.weights)
}

// MinimalDeadline returns the smallest feasible deadline when every task
// runs at speed smax: the weight of the critical path divided by smax.
func (g *Graph) MinimalDeadline(smax float64) (float64, error) {
	if !(smax > 0) {
		return 0, fmt.Errorf("graph: smax must be positive, got %v", smax)
	}
	cpw, err := g.CriticalPathWeight()
	if err != nil {
		return 0, err
	}
	return cpw / smax, nil
}

// Slack returns, for each task, the scheduling slack lf - ef under the given
// durations and deadline (negative slack means the deadline is violated).
func (g *Graph) Slack(durations []float64, deadline float64) ([]float64, error) {
	pa, err := g.Analyze(durations, deadline)
	if err != nil {
		return nil, err
	}
	slack := make([]float64, g.N())
	for i := range slack {
		slack[i] = pa.LatestFinish[i] - pa.EarliestFinish[i]
	}
	return slack, nil
}
