package graph

// TransitiveReduction returns g with every redundant edge removed: an edge
// (u, v) is redundant when some other path u → … → v exists. For a DAG the
// transitive reduction is unique. When no edge is redundant the result is g
// itself, not a copy; otherwise it is a new graph whose kept edges come out
// in g's edge order. The reachability closure is a bitset of ⌈n/64⌉ words
// per task, filled in reverse topological order: O(n·m/64) word operations
// and n²/8 bytes.
//
// The SP recognizer (DecomposeSP) expects its input in reduced form; callers
// holding graphs with synthesized shortcut edges should reduce first.
func (g *Graph) TransitiveReduction() (*Graph, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.N()
	words := (n + 63) / 64
	reach := make([]uint64, n*words) // row u: the tasks reachable from u
	row := func(u int) []uint64 { return reach[u*words : (u+1)*words] }
	for k := n - 1; k >= 0; k-- {
		u := order[k]
		ru := row(u)
		for _, v := range g.succ[u] {
			ru[v/64] |= 1 << (v % 64)
			for i, w := range row(v) {
				ru[i] |= w
			}
		}
	}
	redundant := func(u, v int) bool {
		for _, w := range g.succ[u] {
			if w != v && row(w)[v/64]&(1<<(v%64)) != 0 {
				return true
			}
		}
		return false
	}
	kept := 0
	for u := 0; u < n; u++ {
		for _, v := range g.succ[u] {
			if !redundant(u, v) {
				kept++
			}
		}
	}
	if kept == g.M() {
		return g, nil
	}
	c := New()
	for i := 0; i < n; i++ {
		c.AddTask(g.names[i], g.weights[i])
	}
	for u := 0; u < n; u++ {
		for _, v := range g.succ[u] {
			if !redundant(u, v) {
				c.MustAddEdge(u, v)
			}
		}
	}
	return c, nil
}
