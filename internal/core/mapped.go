package core

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"

	"repro/internal/graph"
)

// Out-of-core continuous solves over memory-mapped EGRF instances.
//
// The huge-instance tier streams the graph structure straight out of the
// mapping: a union-find over int32 parents plus int32 in-degree counters
// and out-edge offsets classifies every weakly-connected component, and
// chain components get the Theorem 1 closed form (uniform speed W_c/D)
// without ever materializing tasks. The non-chain remainder is grouped by
// component (one int32 per task, one counting sort) and fed to the
// component executor (internal/pipeline), whose GOMAXPROCS workers each
// lift one component into an in-memory Graph only when they take it. So
// the mapping stays the only whole-instance copy: beside it live the
// ~12 bytes per task of classification state, the grouping, and at most
// GOMAXPROCS component graphs.

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

// mappedComp is one weakly-connected component of a mapped instance.
type mappedComp struct {
	size, edges int
	weight      float64
	chainOK     bool // every member has indeg ≤ 1 and outdeg ≤ 1
	// start is the offset of a non-chain component's tasks in
	// mappedScan.members.
	start int
	// energy and newton are the component's solve, written by the worker
	// that takes it.
	energy float64
	newton int
}

// isStreamableChain reports whether a component is a directed path (or a
// singleton): with in/out-degrees capped at 1, exactly size−1 edges
// rules out both branching and cycles, so the chain closed form applies.
func (c *mappedComp) isStreamableChain() bool {
	return c.chainOK && c.edges == c.size-1
}

// mappedScan is the classification of a mapped instance.
type mappedScan struct {
	mg *graph.Mapped
	// comps lists the components in ascending union-find root order.
	comps []*mappedComp
	indeg []int32
	// out[u] .. out[u+1] are the mapping indices of u's out-edges: the
	// edges are sorted by source.
	out []int32
	// members holds every non-chain task, grouped by component in comps
	// order and ascending by task ID within one; nil when all components
	// are chains.
	members []int32
}

// scanMapped classifies the mapped instance's components in one pass
// over edges plus one over tasks, using ~12 bytes per task, then groups
// the non-chain tasks by component with one counting sort. It rejects
// an instance its int32 state cannot index, an edge out of range, a
// self-loop, and edges that are not strictly ascending (unsorted or
// duplicated), which the out-edge offsets rely on.
func scanMapped(mg *graph.Mapped) (*mappedScan, error) {
	n, m := mg.N(), mg.M()
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return nil, fmt.Errorf("core: mapped instance too large for int32 task and edge indices (n=%d, m=%d)", n, m)
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	indeg := make([]int32, n)
	out := make([]int32, n+1) // out-degrees at out[u+1], offsets after the prefix sum
	lastU, lastV := -1, -1
	for k := 0; k < m; k++ {
		u, v := mg.Edge(k)
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, fmt.Errorf("core: mapped instance has invalid edge (%d,%d)", u, v)
		}
		if u < lastU || (u == lastU && v <= lastV) {
			return nil, fmt.Errorf("%w: edge (%d,%d) after (%d,%d), edges must be strictly ascending",
				graph.ErrMappedFormat, u, v, lastU, lastV)
		}
		lastU, lastV = u, v
		out[u+1]++
		indeg[v]++
		ru, rv := find(int32(u)), find(int32(v))
		if ru != rv {
			parent[ru] = rv
		}
	}
	byRoot := make(map[int32]*mappedComp)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		parent[i] = r
		c := byRoot[r]
		if c == nil {
			c = &mappedComp{chainOK: true}
			byRoot[r] = c
		}
		c.size++
		c.edges += int(out[i+1])
		c.weight += mg.Weight(i)
		if indeg[i] > 1 || out[i+1] > 1 {
			c.chainOK = false
		}
	}
	for u := 0; u < n; u++ {
		out[u+1] += out[u]
	}
	sc := &mappedScan{mg: mg, indeg: indeg, out: out}
	grouped := 0
	for _, r := range slices.Sorted(maps.Keys(byRoot)) {
		c := byRoot[r]
		sc.comps = append(sc.comps, c)
		if !c.isStreamableChain() {
			grouped += c.size
			c.start = grouped // one past the end until the fill below
		}
	}
	if grouped == 0 {
		return sc, nil
	}
	sc.members = make([]int32, grouped)
	for i := n - 1; i >= 0; i-- {
		if c := byRoot[parent[i]]; !c.isStreamableChain() {
			c.start--
			sc.members[c.start] = int32(i)
		}
	}
	return sc, nil
}

// graph lifts a non-chain component into an in-memory Graph: local IDs
// in ascending task ID and edges in the mapping's order, so every
// materialization of the component is the same graph.
func (sc *mappedScan) graph(c *mappedComp) (*graph.Graph, error) {
	tasks := sc.members[c.start : c.start+c.size]
	g := graph.New()
	for _, u := range tasks {
		g.AddTask("", sc.mg.Weight(int(u)))
	}
	for lu, u := range tasks {
		for k := sc.out[u]; k < sc.out[u+1]; k++ {
			_, v := sc.mg.Edge(int(k))
			lv, _ := slices.BinarySearch(tasks, int32(v))
			if err := g.AddEdge(lu, lv); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// SolveMappedContinuous solves MinEnergy under the Continuous model on a
// memory-mapped instance, the deadline applying per component as in
// SolvePlanned. Chain components use the closed form s = W_c/D streamed
// from the mapping; the rest run on the component executor, each
// materialized by the worker that takes it and solved by
// SolveContinuous. Energies add in ascending root order — chains first,
// then the solved components — so the sum is the same bits on every run
// and any worker count.
func SolveMappedContinuous(mg *graph.Mapped, deadline, smax float64, opts ContinuousOptions) (*MappedResult, error) {
	if !(deadline > 0) {
		return nil, fmt.Errorf("core: deadline must be positive, got %v", deadline)
	}
	if !(smax > 0) {
		return nil, fmt.Errorf("core: smax must be positive, got %v", smax)
	}
	sc, err := scanMapped(mg)
	if err != nil {
		return nil, err
	}
	res := &MappedResult{Tasks: mg.N(), Edges: mg.M(), Components: len(sc.comps)}
	var solve []*mappedComp
	for _, c := range sc.comps {
		if !c.isStreamableChain() {
			solve = append(solve, c)
			continue
		}
		s := c.weight / deadline
		if s > smax*(1+1e-12) {
			return nil, fmt.Errorf("%w: chain component needs speed %.9g > smax %.9g", ErrInfeasible, s, smax)
		}
		res.Energy += c.weight * s * s
		res.StreamedChains++
	}
	err = solveEach(len(solve), runtime.GOMAXPROCS(0), func(i int) error {
		c := solve[i]
		g, err := sc.graph(c)
		if err != nil {
			return err
		}
		p, err := NewProblem(g, deadline)
		if err != nil {
			return err
		}
		sol, err := p.SolveContinuous(smax, opts)
		if err != nil {
			return err
		}
		c.energy, c.newton = sol.Energy, sol.Stats.Newton
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range solve {
		res.Energy += c.energy
		res.Newton += c.newton
		res.MaterializedTasks += c.size
	}
	return res, nil
}

// MappedMinimalDeadline returns the smallest feasible deadline at smax
// for a mapped instance: the max over components of critical-path weight
// divided by smax. Chain components stream (W_c/smax); the others take
// one Kahn pass over the mapping, with no Graph built.
func MappedMinimalDeadline(mg *graph.Mapped, smax float64) (float64, error) {
	if !(smax > 0) {
		return 0, fmt.Errorf("core: smax must be positive, got %v", smax)
	}
	sc, err := scanMapped(mg)
	if err != nil {
		return 0, err
	}
	dmin := 0.0
	for _, c := range sc.comps {
		if c.isStreamableChain() {
			if d := c.weight / smax; d > dmin {
				dmin = d
			}
		}
	}
	if sc.members == nil {
		return dmin, nil
	}
	// finish[u] holds u's earliest start at unit speed until u leaves the
	// queue, as in graph.Analyze: the path sums are the same bits, and
	// dividing the longest by smax commutes with the max.
	finish := make([]float64, mg.N())
	queue := make([]int32, 0, len(sc.members))
	for _, u := range sc.members {
		if sc.indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	cpw := 0.0
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		f := finish[u] + mg.Weight(int(u))
		if f > cpw {
			cpw = f
		}
		for k := sc.out[u]; k < sc.out[u+1]; k++ {
			_, v := mg.Edge(int(k))
			if f > finish[v] {
				finish[v] = f
			}
			if sc.indeg[v]--; sc.indeg[v] == 0 {
				queue = append(queue, int32(v))
			}
		}
	}
	if len(queue) != len(sc.members) {
		return 0, graph.ErrCycle
	}
	if d := cpw / smax; d > dmin {
		dmin = d
	}
	return dmin, nil
}
