package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/graph"
)

// Out-of-core continuous solves over memory-mapped EGRF instances.
//
// The huge-instance tier streams the graph structure straight out of the
// mapping: a union-find over int32 parents plus int32 in/out-degree
// counters classifies every weakly-connected component, chain components
// get the Theorem 1 closed form (uniform speed W_c/D) without ever
// materializing tasks, and only the non-chain remainder is lifted into
// an in-memory Graph for the usual dispatcher. Peak RSS for an n-task
// instance that is mostly chains is ~12n bytes of classification state,
// far below the materialized Graph's footprint.

// MappedResult summarizes an out-of-core continuous solve. It carries no
// per-task schedule — for million-task instances that would defeat the
// point; chain components are fully described by their uniform speed.
type MappedResult struct {
	// Energy is the total optimal dynamic energy Σ wᵢ·sᵢ².
	Energy float64
	// Tasks and Edges echo the instance dimensions.
	Tasks, Edges int
	// Components counts weakly-connected components.
	Components int
	// StreamedChains counts components solved by the chain closed form
	// directly from the mapping, without materialization.
	StreamedChains int
	// MaterializedTasks counts tasks that had to be lifted into memory
	// for the numeric dispatcher (non-chain components).
	MaterializedTasks int
	// Newton sums interior-point iterations spent on materialized
	// components (0 when everything streamed).
	Newton int
}

// mappedComp accumulates per-component classification state, keyed by
// union-find root. A mostly-chain million-task instance touches one
// entry; a multi-family instance touches one per component.
type mappedComp struct {
	size, edges int
	weight      float64
	chainOK     bool // every member has indeg ≤ 1 and outdeg ≤ 1
}

// mappedScan classifies the mapped instance's components in one pass
// over edges plus one pass over tasks, using ~12 bytes per task.
func mappedScan(mg *graph.Mapped) (map[int32]*mappedComp, []int32, error) {
	n, m := mg.N(), mg.M()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	indeg := make([]int32, n)
	outdeg := make([]int32, n)
	for k := 0; k < m; k++ {
		u, v := mg.Edge(k)
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, nil, fmt.Errorf("core: mapped instance has invalid edge (%d,%d)", u, v)
		}
		outdeg[u]++
		indeg[v]++
		ru, rv := find(int32(u)), find(int32(v))
		if ru != rv {
			parent[ru] = rv
		}
	}
	comps := make(map[int32]*mappedComp)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		c := comps[r]
		if c == nil {
			c = &mappedComp{chainOK: true}
			comps[r] = c
		}
		c.size++
		c.weight += mg.Weight(i)
		if indeg[i] > 1 || outdeg[i] > 1 {
			c.chainOK = false
		}
	}
	for k := 0; k < m; k++ {
		u, _ := mg.Edge(k)
		comps[find(int32(u))].edges++
	}
	return comps, parent, nil
}

// isStreamableChain reports whether a component is a directed path (or a
// singleton): with in/out-degrees capped at 1, exactly size−1 edges
// rules out both branching and cycles, so the chain closed form applies.
func (c *mappedComp) isStreamableChain() bool {
	return c.chainOK && c.edges == c.size-1
}

// mappedMaterialize lifts every non-chain component into an in-memory
// Graph (keyed by union-find root), leaving streamable chains in the
// mapping. parent must be the (path-compressed) forest from mappedScan.
func mappedMaterialize(mg *graph.Mapped, comps map[int32]*mappedComp, parent []int32) (map[int32]*graph.Graph, error) {
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	n := mg.N()
	local := make([]int32, n)
	graphs := make(map[int32]*graph.Graph)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if comps[r].isStreamableChain() {
			local[i] = -1
			continue
		}
		g := graphs[r]
		if g == nil {
			g = graph.New()
			graphs[r] = g
		}
		local[i] = int32(g.AddTask("", mg.Weight(i)))
	}
	for k := 0; k < mg.M(); k++ {
		u, v := mg.Edge(k)
		if local[u] < 0 {
			continue
		}
		g := graphs[find(int32(u))]
		if err := g.AddEdge(int(local[u]), int(local[v])); err != nil {
			return nil, err
		}
	}
	return graphs, nil
}

// SolveMappedContinuous solves MinEnergy under the Continuous model on a
// memory-mapped instance, the deadline applying per component as in
// SolvePlanned. Chain components use the closed form s = W_c/D streamed
// from the mapping; everything else is materialized and dispatched
// through SolveContinuous.
func SolveMappedContinuous(mg *graph.Mapped, deadline, smax float64, opts ContinuousOptions) (*MappedResult, error) {
	if !(deadline > 0) {
		return nil, fmt.Errorf("core: deadline must be positive, got %v", deadline)
	}
	if !(smax > 0) {
		return nil, fmt.Errorf("core: smax must be positive, got %v", smax)
	}
	comps, parent, err := mappedScan(mg)
	if err != nil {
		return nil, err
	}
	res := &MappedResult{Tasks: mg.N(), Edges: mg.M(), Components: len(comps)}
	// Energies add in ascending root order, not map order, so the sum is
	// the same bits on every run.
	roots := slices.Sorted(maps.Keys(comps))
	needMaterialize := false
	for _, r := range roots {
		if c := comps[r]; c.isStreamableChain() {
			s := c.weight / deadline
			if s > smax*(1+1e-12) {
				return nil, fmt.Errorf("%w: chain component needs speed %.9g > smax %.9g", ErrInfeasible, s, smax)
			}
			res.Energy += c.weight * s * s
			res.StreamedChains++
		} else {
			needMaterialize = true
		}
	}
	if !needMaterialize {
		return res, nil
	}
	graphs, err := mappedMaterialize(mg, comps, parent)
	if err != nil {
		return nil, err
	}
	for _, r := range roots {
		g := graphs[r]
		if g == nil {
			continue
		}
		p, err := NewProblem(g, deadline)
		if err != nil {
			return nil, err
		}
		sol, err := p.SolveContinuous(smax, opts)
		if err != nil {
			return nil, err
		}
		res.Energy += sol.Energy
		res.Newton += sol.Stats.Newton
		res.MaterializedTasks += g.N()
	}
	return res, nil
}

// MappedMinimalDeadline returns the smallest feasible deadline at smax
// for a mapped instance: the max over components of critical-path weight
// divided by smax, with chain components streamed (W_c/smax) and only
// non-chain components materialized.
func MappedMinimalDeadline(mg *graph.Mapped, smax float64) (float64, error) {
	if !(smax > 0) {
		return 0, fmt.Errorf("core: smax must be positive, got %v", smax)
	}
	comps, parent, err := mappedScan(mg)
	if err != nil {
		return 0, err
	}
	dmin := 0.0
	needMaterialize := false
	for _, c := range comps {
		if c.isStreamableChain() {
			if d := c.weight / smax; d > dmin {
				dmin = d
			}
		} else {
			needMaterialize = true
		}
	}
	if !needMaterialize {
		return dmin, nil
	}
	graphs, err := mappedMaterialize(mg, comps, parent)
	if err != nil {
		return 0, err
	}
	for _, g := range graphs {
		d, err := g.MinimalDeadline(smax)
		if err != nil {
			return 0, err
		}
		if d > dmin {
			dmin = d
		}
	}
	return dmin, nil
}
