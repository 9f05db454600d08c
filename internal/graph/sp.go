package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Series-parallel task graphs, in the order-theoretic sense the paper uses
// (Theorem 2): a single task is series-parallel; the series composition A;B
// makes every task of A precede every task of B; the parallel composition
// A‖B imposes no constraints between A and B. Materialized as a DAG, the
// series composition adds the complete bipartite edge set
// sinks(A) × sources(B), which is exactly the transitive reduction of the
// combined order.
//
// SP structure is what makes the continuous model solvable in closed form:
// the "equivalent weight" algebra in internal/core composes along this tree.

// SPKind discriminates SP expression nodes.
type SPKind int

// SP expression node kinds.
const (
	SPTask SPKind = iota
	SPSeries
	SPParallel
)

// SPExpr is a series-parallel expression over task IDs.
type SPExpr struct {
	Kind     SPKind
	Task     int // valid when Kind == SPTask
	Children []*SPExpr
}

// SPLeaf returns a leaf expression for the given task ID.
func SPLeaf(task int) *SPExpr { return &SPExpr{Kind: SPTask, Task: task} }

// SPSeriesOf composes children in series (left executes entirely before
// right). Panics with fewer than one child; a single child is returned
// unchanged.
func SPSeriesOf(children ...*SPExpr) *SPExpr {
	return spCompose(SPSeries, children)
}

// SPParallelOf composes children in parallel.
func SPParallelOf(children ...*SPExpr) *SPExpr {
	return spCompose(SPParallel, children)
}

func spCompose(kind SPKind, children []*SPExpr) *SPExpr {
	if len(children) == 0 {
		panic("graph: SP composition needs at least one child")
	}
	if len(children) == 1 {
		return children[0]
	}
	// Flatten nested same-kind nodes for a canonical form.
	flat := make([]*SPExpr, 0, len(children))
	for _, c := range children {
		if c.Kind == kind {
			flat = append(flat, c.Children...)
		} else {
			flat = append(flat, c)
		}
	}
	return &SPExpr{Kind: kind, Children: flat}
}

// Tasks returns all task IDs in the expression, in left-to-right order.
func (e *SPExpr) Tasks() []int {
	var out []int
	var walk func(*SPExpr)
	walk = func(x *SPExpr) {
		if x.Kind == SPTask {
			out = append(out, x.Task)
			return
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(e)
	return out
}

// Size returns the number of task leaves.
func (e *SPExpr) Size() int { return len(e.Tasks()) }

// String renders the expression, e.g. "(T0 ; (T1 || T2))".
func (e *SPExpr) String() string {
	switch e.Kind {
	case SPTask:
		return fmt.Sprintf("T%d", e.Task)
	case SPSeries, SPParallel:
		sep := " ; "
		if e.Kind == SPParallel {
			sep = " || "
		}
		parts := make([]string, len(e.Children))
		for i, c := range e.Children {
			parts[i] = c.String()
		}
		return "(" + strings.Join(parts, sep) + ")"
	}
	return "?"
}

// sourcesOf and sinksOf compute the extreme tasks of an expression under the
// SP order: sources are tasks with no predecessor inside e, sinks have no
// successor inside e.
func (e *SPExpr) sourcesOf() []int {
	switch e.Kind {
	case SPTask:
		return []int{e.Task}
	case SPSeries:
		return e.Children[0].sourcesOf()
	default: // SPParallel
		var out []int
		for _, c := range e.Children {
			out = append(out, c.sourcesOf()...)
		}
		return out
	}
}

func (e *SPExpr) sinksOf() []int {
	switch e.Kind {
	case SPTask:
		return []int{e.Task}
	case SPSeries:
		return e.Children[len(e.Children)-1].sinksOf()
	default:
		var out []int
		for _, c := range e.Children {
			out = append(out, c.sinksOf()...)
		}
		return out
	}
}

// AddEdgesTo materializes the SP order's transitive reduction into g:
// for every series composition, edges from the sinks of each child to the
// sources of the next child. The tasks referenced by e must already exist
// in g. Duplicate edges (possible when the expression is not in canonical
// form) are skipped.
func (e *SPExpr) AddEdgesTo(g *Graph) {
	var walk func(*SPExpr)
	walk = func(x *SPExpr) {
		if x.Kind == SPTask {
			return
		}
		for _, c := range x.Children {
			walk(c)
		}
		if x.Kind == SPSeries {
			for i := 0; i+1 < len(x.Children); i++ {
				for _, u := range x.Children[i].sinksOf() {
					for _, v := range x.Children[i+1].sourcesOf() {
						if !g.HasEdge(u, v) {
							g.MustAddEdge(u, v)
						}
					}
				}
			}
		}
	}
	walk(e)
}

// MaterializeSP builds a Graph with the given task weights (task i has
// weight weights[i]) whose edges realize the SP expression. The expression
// must reference each task ID in [0, len(weights)) at most once.
func MaterializeSP(e *SPExpr, weights []float64) (*Graph, error) {
	g := New()
	for i, w := range weights {
		g.AddTask(fmt.Sprintf("T%d", i), w)
	}
	seen := make(map[int]bool)
	for _, t := range e.Tasks() {
		if t < 0 || t >= len(weights) {
			return nil, fmt.Errorf("graph: SP expression references task %d outside [0,%d)", t, len(weights))
		}
		if seen[t] {
			return nil, fmt.Errorf("graph: SP expression references task %d twice", t)
		}
		seen[t] = true
	}
	e.AddEdgesTo(g)
	return g, nil
}

// DecomposeSP attempts to recover an SP expression from a DAG. It returns
// (expr, true) when g is a series-parallel order materialized as its
// transitive reduction (as produced by MaterializeSP), and (nil, false)
// otherwise.
//
// The algorithm splits recursively: a weakly disconnected graph is a
// parallel composition of its components; otherwise a connected graph with
// more than one task must (in an SP order) admit a series cut at some
// prefix of any topological order, where the crossing edges are exactly
// sinks(prefix) × sources(suffix). The smallest valid cut is taken and both
// sides recurse. Worst-case O(n²·m), intended for n up to a few thousand.
func DecomposeSP(g *Graph) (*SPExpr, bool) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, false
	}
	all := make([]int, g.N())
	copy(all, order)
	return decomposeSubset(g, all)
}

// decomposeSubset decomposes the induced subgraph on nodes (given in a
// topological order of g restricted to the subset).
func decomposeSubset(g *Graph, nodes []int) (*SPExpr, bool) {
	if len(nodes) == 0 {
		return nil, false
	}
	if len(nodes) == 1 {
		return SPLeaf(nodes[0]), true
	}
	inSet := make(map[int]bool, len(nodes))
	for _, u := range nodes {
		inSet[u] = true
	}
	// Parallel split: weakly connected components within the subset.
	comps := componentsWithin(g, nodes, inSet)
	if len(comps) > 1 {
		children := make([]*SPExpr, 0, len(comps))
		for _, comp := range comps {
			sub := restrictTopo(nodes, comp)
			c, ok := decomposeSubset(g, sub)
			if !ok {
				return nil, false
			}
			children = append(children, c)
		}
		return SPParallelOf(children...), true
	}
	// Series split: try prefixes of the topological order.
	inPrefix := make(map[int]bool, len(nodes))
	for k := 1; k < len(nodes); k++ {
		inPrefix[nodes[k-1]] = true
		if validSeriesCut(g, nodes, inSet, inPrefix, k) {
			left, ok := decomposeSubset(g, nodes[:k])
			if !ok {
				return nil, false
			}
			right, ok := decomposeSubset(g, nodes[k:])
			if !ok {
				return nil, false
			}
			return SPSeriesOf(left, right), true
		}
	}
	return nil, false
}

// componentsWithin returns weakly connected components of the induced
// subgraph, each as a sorted-id slice.
func componentsWithin(g *Graph, nodes []int, inSet map[int]bool) [][]int {
	comp := make(map[int]int, len(nodes))
	var comps [][]int
	for _, start := range nodes {
		if _, done := comp[start]; done {
			continue
		}
		id := len(comps)
		var members []int
		stack := []int{start}
		comp[start] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			for _, v := range g.Succ(u) {
				if inSet[v] {
					if _, done := comp[v]; !done {
						comp[v] = id
						stack = append(stack, v)
					}
				}
			}
			for _, v := range g.Pred(u) {
				if inSet[v] {
					if _, done := comp[v]; !done {
						comp[v] = id
						stack = append(stack, v)
					}
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	return comps
}

// restrictTopo filters the topologically ordered slice nodes to members of
// keep (given sorted by ID), preserving topological order.
func restrictTopo(nodes []int, keep []int) []int {
	in := make(map[int]bool, len(keep))
	for _, u := range keep {
		in[u] = true
	}
	out := make([]int, 0, len(keep))
	for _, u := range nodes {
		if in[u] {
			out = append(out, u)
		}
	}
	return out
}

// validSeriesCut checks that splitting the subset at prefix length k yields
// a series composition: the crossing edges are exactly
// sinks(prefix) × sources(suffix).
func validSeriesCut(g *Graph, nodes []int, inSet, inPrefix map[int]bool, k int) bool {
	// Identify sinks of the prefix (no successor inside prefix) and sources
	// of the suffix (no predecessor inside suffix).
	var sinks, srcs []int
	for _, u := range nodes[:k] {
		isSink := true
		for _, v := range g.Succ(u) {
			if inSet[v] && inPrefix[v] {
				isSink = false
				break
			}
		}
		if isSink {
			sinks = append(sinks, u)
		}
	}
	for _, u := range nodes[k:] {
		isSrc := true
		for _, v := range g.Pred(u) {
			if inSet[v] && !inPrefix[v] {
				isSrc = false
				break
			}
		}
		if isSrc {
			srcs = append(srcs, u)
		}
	}
	isSinkSet := make(map[int]bool, len(sinks))
	for _, u := range sinks {
		isSinkSet[u] = true
	}
	isSrcSet := make(map[int]bool, len(srcs))
	for _, u := range srcs {
		isSrcSet[u] = true
	}
	// Every crossing edge must go sink → source; count them to verify the
	// bipartite set is complete.
	crossing := 0
	for _, u := range nodes[:k] {
		for _, v := range g.Succ(u) {
			if !inSet[v] || inPrefix[v] {
				continue
			}
			if !isSinkSet[u] || !isSrcSet[v] {
				return false
			}
			crossing++
		}
	}
	return crossing == len(sinks)*len(srcs)
}

// ChainExpr returns the SP expression of a chain over the given task IDs.
func ChainExpr(tasks []int) *SPExpr {
	leaves := make([]*SPExpr, len(tasks))
	for i, t := range tasks {
		leaves[i] = SPLeaf(t)
	}
	return SPSeriesOf(leaves...)
}

// TreeToSP converts an out-tree (root has no predecessors) or in-tree into
// the equivalent SP expression: an out-tree rooted at r is
// Series(r, Parallel(subtrees)); an in-tree is the mirror image. Returns
// false if g is neither. Linear in the tree size, chains included.
func TreeToSP(g *Graph) (*SPExpr, bool) {
	if root, ok := g.IsOutTree(); ok {
		return treeExpr(root, g.Succ, false), true
	}
	if root, ok := g.IsInTree(); ok {
		return treeExpr(root, g.Pred, true), true
	}
	return nil, false
}

// treeExpr converts the subtree hanging off u, walking away from the root
// along next (successors of an out-tree, predecessors of an in-tree). Each
// single-child run becomes one flat series node in one pass — recursing
// per task would re-copy the flattened tail at every level, quadratic on
// chains. An in-tree's run executes root-last, so it is reversed.
func treeExpr(u int, next func(int) []int, in bool) *SPExpr {
	var run []*SPExpr
	for ; len(next(u)) == 1; u = next(u)[0] {
		run = append(run, SPLeaf(u))
	}
	run = append(run, SPLeaf(u))
	if kids := next(u); len(kids) > 1 {
		par := &SPExpr{Kind: SPParallel, Children: make([]*SPExpr, len(kids))}
		for i, v := range kids {
			par.Children[i] = treeExpr(v, next, in)
		}
		run = append(run, par)
	}
	if in {
		slices.Reverse(run)
	}
	return SPSeriesOf(run...)
}
