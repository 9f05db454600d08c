package graph

import (
	"fmt"
	"sort"
)

// Recognizers for the special graph classes the paper treats: chains, forks,
// joins, and trees. Series-parallel recognition lives in sp.go.

// IsChain reports whether the graph is a single linear chain, and if so
// returns the task IDs in chain order.
func (g *Graph) IsChain() ([]int, bool) {
	n := g.N()
	if n == 0 {
		return nil, false
	}
	var head = -1
	for i := 0; i < n; i++ {
		if len(g.pred[i]) > 1 || len(g.succ[i]) > 1 {
			return nil, false
		}
		if len(g.pred[i]) == 0 {
			if head >= 0 {
				return nil, false // two heads: not connected as one chain
			}
			head = i
		}
	}
	if head < 0 {
		return nil, false
	}
	order := make([]int, 0, n)
	for u := head; ; {
		order = append(order, u)
		if len(g.succ[u]) == 0 {
			break
		}
		u = g.succ[u][0]
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// IsFork reports whether the graph is a fork: one source T0 with edges to
// every other task, and no other edges (the shape of Theorem 1). Returns the
// source ID.
func (g *Graph) IsFork() (int, bool) { return g.star(g.succ, g.pred) }

// IsJoin reports whether the graph is a join (the mirror of a fork): one
// sink receiving an edge from every other task, no other edges. Returns the
// sink ID.
func (g *Graph) IsJoin() (int, bool) { return g.star(g.pred, g.succ) }

// star returns the centre of a fork read along out (successors for a
// fork, predecessors for a join): the one task with nothing in in, whose
// out reaches every other task, each of which has it as its only in and
// nothing in out.
func (g *Graph) star(out, in [][]int) (int, bool) {
	n := g.N()
	c := -1
	for i := 0; i < n; i++ {
		if len(in[i]) == 0 {
			if c >= 0 {
				return -1, false
			}
			c = i
		}
	}
	if n < 2 || c < 0 || len(out[c]) != n-1 {
		return -1, false
	}
	for i := 0; i < n; i++ {
		if i != c && (len(in[i]) != 1 || in[i][0] != c || len(out[i]) != 0) {
			return -1, false
		}
	}
	return c, true
}

// IsOutTree reports whether the graph is an out-tree (every task has at most
// one predecessor, exactly one root, connected). Returns the root.
func (g *Graph) IsOutTree() (int, bool) { return g.treeRoot(g.pred) }

// IsInTree reports whether the graph is an in-tree (every task has at most
// one successor, exactly one sink root, connected). Returns the root (sink).
func (g *Graph) IsInTree() (int, bool) { return g.treeRoot(g.succ) }

// treeRoot returns the root of a tree read along in (predecessors for an
// out-tree, successors for an in-tree): every task has at most one in,
// exactly one has none, and n−1 edges with a single root imply the graph
// is connected, hence a tree.
func (g *Graph) treeRoot(in [][]int) (int, bool) {
	n := g.N()
	root := -1
	for i := 0; i < n; i++ {
		switch len(in[i]) {
		case 0:
			if root >= 0 {
				return -1, false
			}
			root = i
		case 1:
		default:
			return -1, false
		}
	}
	if root < 0 || g.M() != n-1 {
		return -1, false
	}
	return root, true
}

// IsConnected reports whether the underlying undirected graph is connected.
// The empty graph counts as connected.
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succ[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
		for _, v := range g.pred[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// WeaklyConnectedComponents returns the node sets of the weakly connected
// components, each sorted by task ID, in order of smallest member.
func (g *Graph) WeaklyConnectedComponents() [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
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
			for _, v := range g.succ[u] {
				if comp[v] < 0 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
			for _, v := range g.pred[u] {
				if comp[v] < 0 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
		}
		// members discovered via DFS; sort by ID for deterministic output.
		sort.Ints(members)
		comps = append(comps, members)
	}
	return comps
}

// InducedSubgraph returns the subgraph induced by the given task IDs (names
// and weights preserved, edges with both endpoints inside kept) together
// with the mapping from new dense IDs back to the originals: back[new] = old.
// IDs must be in range and strictly increasing, as produced by
// WeaklyConnectedComponents.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int, error) {
	local := make(map[int]int, len(nodes))
	sub := New()
	back := make([]int, 0, len(nodes))
	for i, u := range nodes {
		if u < 0 || u >= g.N() {
			return nil, nil, fmt.Errorf("graph: subgraph node %d out of range [0,%d)", u, g.N())
		}
		if i > 0 && nodes[i-1] >= u {
			return nil, nil, fmt.Errorf("graph: subgraph nodes must be strictly increasing, got %d after %d", u, nodes[i-1])
		}
		local[u] = sub.AddTask(g.names[u], g.weights[u])
		back = append(back, u)
	}
	for _, u := range nodes {
		for _, v := range g.succ[u] {
			if lv, ok := local[v]; ok {
				sub.MustAddEdge(local[u], lv)
			}
		}
	}
	return sub, back, nil
}
