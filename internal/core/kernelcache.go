package core

import (
	"sync/atomic"

	"repro/internal/convex"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/lru"
)

// The continuous geometric program splits cleanly along the
// structure/value axis: the constraint matrix A over x = (t, d) has only
// ±1 entries whose placement is fixed by the (transitively reduced)
// precedence structure and by whether a lower speed bound adds the
// duration-ceiling rows — the weights, deadline, release times and power
// exponent reach the solver exclusively through the right-hand side b,
// the objective, and the start point. compileContinuousKernel, the only
// code that emits these rows, captures everything on the structure side,
// so requests that differ only in values reuse the
// transitive reduction, the CSR assembly, the fill-reducing ordering, and
// the symbolic factorization.

// continuousKernel is the compiled structure-determined state of one
// continuous solve: the post-reduction edge list (which fixes the
// constraint row order b must follow), the CSR constraint matrix, and
// the compiled sparse interior-point program.
type continuousKernel struct {
	edges       [][2]int
	rowsDropped int
	hasHi       bool
	rows        int
	a           *linalg.CSR
	prog        *convex.SparseProgram
	// topo is a topological order of the tasks and down[u] the head of
	// u's first precedence row (−1 for a sink): the path along which
	// dualBound pushes completion-time residuals.
	topo []int
	down []int
}

// compileContinuousKernel assembles the constraint structure for the
// execution graph g. hasHi adds the dᵢ ≤ wᵢ/smin rows (their values live
// in b; only their existence is structural).
func compileContinuousKernel(g *graph.Graph, hasHi bool, opts ContinuousOptions) *continuousKernel {
	n := g.N()
	// Dense DAGs (m > 2n) usually carry transitively implied precedences:
	// u→v alongside u→w→v. Every duration is strictly positive, so the
	// u→v row is strictly implied by the u→w and w→v rows and the
	// transitive reduction defines the same feasible set with fewer
	// constraint rows. Sparse graphs skip the reduction's n²-bit closure.
	edges := g.Edges()
	rowsDropped := 0
	if len(edges) > 2*n {
		if reduced, rerr := g.TransitiveReduction(); rerr == nil {
			redEdges := reduced.Edges()
			rowsDropped = len(edges) - len(redEdges)
			edges = redEdges
		}
	}
	rows := len(edges) + 3*n
	if hasHi {
		rows += n
	}
	ab := linalg.NewCSRBuilder(2 * n)
	for _, e := range edges { // t_u + d_v - t_v <= 0
		ab.Set(e[0], 1)
		ab.Set(n+e[1], 1)
		ab.Set(e[1], -1)
		ab.EndRow()
	}
	for i := 0; i < n; i++ { // d_i - t_i <= -r_i
		ab.Set(n+i, 1)
		ab.Set(i, -1)
		ab.EndRow()
	}
	for i := 0; i < n; i++ { // t_i <= 1
		ab.Set(i, 1)
		ab.EndRow()
	}
	for i := 0; i < n; i++ { // -d_i <= -w_i/sCap
		ab.Set(n+i, -1)
		ab.EndRow()
	}
	if hasHi {
		for i := 0; i < n; i++ { // d_i <= w_i/smin
			ab.Set(n+i, 1)
			ab.EndRow()
		}
	}
	topo, _ := g.TopoOrder()
	down := make([]int, n)
	for i := range down {
		down[i] = -1
	}
	for _, e := range edges {
		if down[e[0]] < 0 {
			down[e[0]] = e[1]
		}
	}
	a := ab.Build()
	return &continuousKernel{
		edges: edges, rowsDropped: rowsDropped, hasHi: hasHi, rows: rows, a: a,
		prog: convex.CompileSparse(a, 2*n, convex.Options{Ordering: opts.Ordering}),
		topo: topo, down: down,
	}
}

// kernelKey identifies one compiled kernel: the graph's structural
// fingerprint plus every option that changes the compiled artifact —
// the hi-row block and the ordering selection.
type kernelKey struct {
	fp       [32]byte
	hasHi    bool
	ordering convex.Ordering
}

// KernelCache is a bounded LRU of compiled continuous kernels keyed by
// graph structure. Entries are immutable and safe to share: the sparse
// program inside pools its own per-solve workspaces, so N concurrent
// solves can hit one entry. A value-miss/structure-hit request skips the
// transitive reduction, CSR assembly, ordering, and symbolic factorization
// entirely.
type KernelCache struct {
	lru *lru.Cache[kernelKey, *continuousKernel]

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewKernelCache returns a cache holding up to cap compiled kernels;
// cap < 1 is clamped to 1.
func NewKernelCache(cap int) *KernelCache {
	return &KernelCache{lru: lru.New[kernelKey, *continuousKernel](max(cap, 1))}
}

// kernel returns the compiled kernel for g under opts, compiling and
// inserting on miss. Concurrent misses on one key may compile twice; the
// first insertion wins and the duplicate is dropped — acceptable, since
// entries are interchangeable and the race is rare.
func (c *KernelCache) kernel(g *graph.Graph, hasHi bool, opts ContinuousOptions) *continuousKernel {
	key := kernelKey{fp: g.StructuralFingerprint(), hasHi: hasHi, ordering: opts.Ordering}
	if ker, ok := c.lru.Get(key); ok {
		c.hits.Add(1)
		return ker
	}
	c.misses.Add(1)
	return c.lru.LoadOrAdd(key, compileContinuousKernel(g, hasHi, opts))
}

// Hits returns the lookup-hit count.
func (c *KernelCache) Hits() uint64 { return c.hits.Load() }

// Misses returns the lookup-miss count.
func (c *KernelCache) Misses() uint64 { return c.misses.Load() }

// Len returns the number of cached kernels.
func (c *KernelCache) Len() int { return c.lru.Len() }
