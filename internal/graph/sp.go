package graph

import (
	"cmp"
	"fmt"
	"slices"
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

// DecomposeSP recovers the SP expression of a DAG. It returns (expr, true)
// when g is a series-parallel order materialized as its transitive
// reduction (as MaterializeSP produces), and (nil, false) otherwise — a
// graph carrying shortcut edges is rejected, so callers reduce first.
//
// The recognizer runs in O(n+m), after Valdes, Tarjan and Lawler ("The
// recognition of series parallel digraphs", SIAM J. Comput. 11(2), 1982):
// g is the Hasse diagram of an SP order exactly when it is the line
// digraph of a two-terminal series-parallel multigraph. Each task becomes
// an arc from its entry junction to its exit junction; an edge u → v fuses
// exit(u) with entry(v), every source's entry fuses with the terminal S
// and every sink's exit with the terminal T. g is the line digraph when
// each task's successors are all the entries of its exit junction; an
// N-shaped order fails here. Series reductions (a junction with one arc
// in and one out) and parallel reductions (two arcs with the same ends)
// then leave a single S → T arc exactly when the multigraph is
// series-parallel, and that arc's label is the expression. Parallel
// children come in the order of their first task in g.TopoOrder().
func DecomposeSP(g *Graph) (*SPExpr, bool) {
	n := g.N()
	order, err := g.TopoOrder()
	if n == 0 || err != nil {
		return nil, false
	}
	// Junctions by union-find: entry(t) = t, exit(t) = n+t, S = 2n, T = 2n+1.
	parent := make([]int, 2*n+2)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for u := 0; u < n; u++ {
		if len(g.pred[u]) == 0 {
			union(2*n, u)
		}
		if len(g.succ[u]) == 0 {
			union(n+u, 2*n+1)
		}
		for _, v := range g.succ[u] {
			union(n+u, v)
		}
	}
	// Line-digraph test. Every edge out of u lands in exit(u)'s junction,
	// on distinct tasks, so u reaches all of that junction's entries
	// exactly when it has as many successors as the junction has entries.
	entries := make([]int, 2*n+2)
	for v := 0; v < n; v++ {
		entries[find(v)]++
	}
	for u := 0; u < n; u++ {
		if len(g.succ[u]) != entries[find(n+u)] {
			return nil, false
		}
	}

	// The multigraph keeps one live arc per (tail, head) pair; a second
	// one folds into it as a parallel composition. A junction's in-arc and
	// out-arc ID sums name its only arcs once its degrees are 1 and 1. Arc
	// labels are binary expression nodes, the first n of them the tasks;
	// first is the least topological position among a node's tasks.
	type node struct {
		kind               SPKind
		left, right, first int
	}
	type arc struct{ tail, head, node int }
	type junction struct{ in, out, inSum, outSum int }
	nodes := make([]node, n, 2*n)
	for pos, t := range order {
		nodes[t] = node{SPTask, t, -1, pos}
	}
	compose := func(kind SPKind, l, r int) int {
		nodes = append(nodes, node{kind, l, r, min(nodes[l].first, nodes[r].first)})
		return len(nodes) - 1
	}
	arcs := make([]arc, 0, 2*n)
	between := make(map[[2]int]int, n)
	js := make([]junction, 2*n+2)
	link := func(a, d int) { // d = +1 adds arc a to its ends, -1 removes it
		u, w := arcs[a].tail, arcs[a].head
		js[u].out, js[u].outSum = js[u].out+d, js[u].outSum+d*a
		js[w].in, js[w].inSum = js[w].in+d, js[w].inSum+d*a
	}
	add := func(u, w, x int) {
		if a, ok := between[[2]int{u, w}]; ok {
			arcs[a].node = compose(SPParallel, arcs[a].node, x)
			return
		}
		between[[2]int{u, w}] = len(arcs)
		arcs = append(arcs, arc{u, w, x})
		link(len(arcs)-1, 1)
	}
	var work []int // every junction but T is some task's entry
	for t := 0; t < n; t++ {
		add(find(t), find(n+t), t)
		work = append(work, find(t))
	}
	for len(work) > 0 { // S has no in-arcs and T no out-arcs: never reduced
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if js[v].in != 1 || js[v].out != 1 {
			continue
		}
		a, b := js[v].inSum, js[v].outSum
		for _, x := range [2]int{a, b} {
			delete(between, [2]int{arcs[x].tail, arcs[x].head})
			link(x, -1)
		}
		u, w := arcs[a].tail, arcs[b].head
		add(u, w, compose(SPSeries, arcs[a].node, arcs[b].node))
		work = append(work, u, w)
	}
	last, ok := between[[2]int{find(2 * n), find(2*n + 1)}]
	if !ok || len(between) != 1 {
		return nil, false
	}

	// Flatten the binary tree top down: the children of a series (parallel)
	// node are its maximal non-series (non-parallel) subtrees, left to
	// right; parallel children are then ordered by first position.
	expr := func(x int) *SPExpr {
		if nodes[x].kind == SPTask {
			return SPLeaf(nodes[x].left)
		}
		return &SPExpr{Kind: nodes[x].kind}
	}
	type job struct {
		x int
		e *SPExpr
	}
	root := expr(arcs[last].node)
	jobs := []job{{arcs[last].node, root}}
	var walk, kids []int
	for len(jobs) > 0 {
		j := jobs[len(jobs)-1]
		jobs = jobs[:len(jobs)-1]
		if j.e.Kind == SPTask {
			continue
		}
		walk, kids = append(walk[:0], j.x), kids[:0]
		for len(walk) > 0 {
			x := walk[len(walk)-1]
			walk = walk[:len(walk)-1]
			if nodes[x].kind == j.e.Kind {
				walk = append(walk, nodes[x].right, nodes[x].left)
			} else {
				kids = append(kids, x)
			}
		}
		if j.e.Kind == SPParallel {
			slices.SortFunc(kids, func(a, b int) int { return cmp.Compare(nodes[a].first, nodes[b].first) })
		}
		j.e.Children = make([]*SPExpr, len(kids))
		for i, x := range kids {
			j.e.Children[i] = expr(x)
			jobs = append(jobs, job{x, j.e.Children[i]})
		}
	}
	return root, true
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
