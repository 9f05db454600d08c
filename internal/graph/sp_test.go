package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSPLeafAndCompose(t *testing.T) {
	e := SPSeriesOf(SPLeaf(0), SPParallelOf(SPLeaf(1), SPLeaf(2)))
	if e.Kind != SPSeries || len(e.Children) != 2 {
		t.Fatalf("unexpected expression %v", e)
	}
	if e.Size() != 3 {
		t.Fatalf("Size = %d", e.Size())
	}
	if got := e.String(); got != "(T0 ; (T1 || T2))" {
		t.Fatalf("String = %q", got)
	}
	// Single child composition collapses.
	if SPSeriesOf(SPLeaf(7)) != SPLeaf(7) && SPSeriesOf(SPLeaf(7)).Kind != SPTask {
		t.Fatal("single-child series should collapse to the child")
	}
}

func TestSPComposeFlattens(t *testing.T) {
	e := SPSeriesOf(SPSeriesOf(SPLeaf(0), SPLeaf(1)), SPLeaf(2))
	if len(e.Children) != 3 {
		t.Fatalf("nested series not flattened: %v", e)
	}
}

func TestMaterializeFork(t *testing.T) {
	// (T0 ; (T1 || T2)) must materialize as a fork.
	e := SPSeriesOf(SPLeaf(0), SPParallelOf(SPLeaf(1), SPLeaf(2)))
	g, err := MaterializeSP(e, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.IsFork(); !ok {
		t.Fatalf("expected a fork, got edges %v", g.Edges())
	}
}

func TestMaterializeForkJoin(t *testing.T) {
	e := SPSeriesOf(SPLeaf(0), SPParallelOf(SPLeaf(1), SPLeaf(2)), SPLeaf(3))
	g, err := MaterializeSP(e, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if g.M() != len(want) {
		t.Fatalf("edges = %v", g.Edges())
	}
	for _, e := range want {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v", e)
		}
	}
}

func TestMaterializeRejectsBadExpr(t *testing.T) {
	if _, err := MaterializeSP(SPLeaf(5), []float64{1}); err == nil {
		t.Fatal("accepted out-of-range task")
	}
	dup := SPSeriesOf(SPLeaf(0), SPLeaf(0))
	if _, err := MaterializeSP(dup, []float64{1}); err == nil {
		t.Fatal("accepted duplicate task")
	}
}

func TestDecomposeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Chain(rng, 6, ConstantWeights(1))
	e, ok := DecomposeSP(g)
	if !ok {
		t.Fatal("chain not recognized as SP")
	}
	if e.Kind != SPSeries || e.Size() != 6 {
		t.Fatalf("unexpected decomposition %v", e)
	}
}

func TestDecomposeForkJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ForkJoin(rng, 3, 2, ConstantWeights(1))
	e, ok := DecomposeSP(g)
	if !ok {
		t.Fatal("fork-join not recognized as SP")
	}
	if e.Size() != g.N() {
		t.Fatalf("decomposition covers %d of %d tasks", e.Size(), g.N())
	}
}

func TestDecomposeRejectsNonSP(t *testing.T) {
	// The "N" shape: a→c, a→d, b→d is the canonical non-SP order.
	g := New()
	g.AddTasks(4, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 3)
	if _, ok := DecomposeSP(g); ok {
		t.Fatal("N-shaped graph recognized as SP")
	}
}

func TestDecomposeRejectsCycle(t *testing.T) {
	g := New()
	g.AddTasks(2, 1)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	if _, ok := DecomposeSP(g); ok {
		t.Fatal("cyclic graph recognized as SP")
	}
}

// Property: materialize(randomSP) always decomposes back to an SP graph
// whose re-materialization has identical edges.
func TestSPRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		g, _ := RandomSP(rng, n, UniformWeights(1, 10))
		e2, ok := DecomposeSP(g)
		if !ok {
			return false
		}
		g2, err := MaterializeSP(e2, g.Weights())
		if err != nil {
			return false
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		for _, edge := range g.Edges() {
			if !g2.HasEdge(edge[0], edge[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// decomposeSPPrefixScan is the recognizer DecomposeSP replaced, kept as
// its oracle. It splits recursively: a weakly disconnected graph is a
// parallel composition of its components; otherwise a connected graph with
// more than one task must (in an SP order) admit a series cut at some
// prefix of any topological order, where the crossing edges are exactly
// sinks(prefix) × sources(suffix). The smallest valid cut is taken and both
// sides recurse. Worst-case O(n²·m).
func decomposeSPPrefixScan(g *Graph) (*SPExpr, bool) {
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

// checkAgainstPrefixScan fails when DecomposeSP and the prefix-scan oracle
// disagree on g: on ok, or on the expression. Both flatten, both order
// series children by execution and parallel children by their first task
// in g.TopoOrder(), so the expressions must be equal node for node — which
// also keeps every answer computed from them bit-identical.
func checkAgainstPrefixScan(t *testing.T, what string, g *Graph) bool {
	t.Helper()
	got, ok := DecomposeSP(g)
	want, wok := decomposeSPPrefixScan(g)
	if ok != wok || !reflect.DeepEqual(got, want) {
		t.Errorf("%s (n=%d, edges %v): DecomposeSP = %v (%v), prefix scan = %v (%v)", what, g.N(), g.Edges(), got, ok, want, wok)
	}
	return ok
}

// generatorCase is one generator of this package drawn at several sizes
// and seeds.
type generatorCase struct {
	name   string
	graphs []*Graph
}

// generatorCases draws every generator in the package at sizes that
// straddle the 64-task word of the bitset closure, three seeds each.
func generatorCases() []generatorCase {
	w := UniformWeights(1, 5)
	var cases []generatorCase
	add := func(name string, gen func(rng *rand.Rand, n int) *Graph) {
		c := generatorCase{name: name}
		for _, n := range []int{1, 2, 3, 5, 12, 40, 63, 64, 65, 130} {
			for seed := int64(1); seed <= 3; seed++ {
				c.graphs = append(c.graphs, gen(rand.New(rand.NewSource(seed*1000+int64(n))), n))
			}
		}
		cases = append(cases, c)
	}
	add("chain", func(rng *rand.Rand, n int) *Graph { return Chain(rng, n, w) })
	add("fork", func(rng *rand.Rand, n int) *Graph { return Fork(rng, n, w) })
	add("join", func(rng *rand.Rand, n int) *Graph { return Join(rng, n, w) })
	add("forkjoin", func(rng *rand.Rand, n int) *Graph { return ForkJoin(rng, 1+n/4, 1+rng.Intn(4), w) })
	add("layered", func(rng *rand.Rand, n int) *Graph { return Layered(rng, 1+n/6, 1+rng.Intn(6), 0.3, w) })
	add("gnp-sparse", func(rng *rand.Rand, n int) *Graph { return GnpDAG(rng, n, 0.1, w) })
	add("gnp-dense", func(rng *rand.Rand, n int) *Graph { return GnpDAG(rng, n, 0.5, w) })
	add("outtree", func(rng *rand.Rand, n int) *Graph { return RandomOutTree(rng, n, w) })
	add("intree", func(rng *rand.Rand, n int) *Graph { return RandomInTree(rng, n, w) })
	add("sp", func(rng *rand.Rand, n int) *Graph { g, _ := RandomSP(rng, n, w); return g })
	add("lu", func(_ *rand.Rand, n int) *Graph { return LUElimination(1+n/20, 1) })
	add("stencil", func(rng *rand.Rand, n int) *Graph { return Stencil(1+rng.Intn(6), 1+n/6, 1) })
	add("fft", func(_ *rand.Rand, n int) *Graph { return FFT(1+n/40, 1) })
	add("mapreduce", func(rng *rand.Rand, n int) *Graph { return MapReduce(1+n/8, 1+rng.Intn(4), 1, 2) })
	add("pipeline", func(rng *rand.Rand, n int) *Graph {
		stages := 1 + rng.Intn(5)
		return Pipeline(stages, 1+n/8, make([]float64, stages))
	})
	return cases
}

// TestDecomposeSPMatchesPrefixScan runs the recognizer and its oracle over
// every generator, each graph as drawn and transitively reduced.
func TestDecomposeSPMatchesPrefixScan(t *testing.T) {
	for _, c := range generatorCases() {
		accepted := 0
		for _, g := range c.graphs {
			red, err := g.TransitiveReduction()
			if err != nil {
				t.Fatal(err)
			}
			if checkAgainstPrefixScan(t, c.name, g) {
				accepted++
			}
			checkAgainstPrefixScan(t, c.name+" reduced", red)
		}
		t.Logf("%-10s %2d of %d graphs series-parallel", c.name, accepted, len(c.graphs))
	}
}

// TestDecomposeSPNearMisses aims at the near misses by following every
// edge of random SP graphs: each graph is checked with one random forward
// edge added (forward in a topological order of the graph), and with each
// of its edges removed in turn.
func TestDecomposeSPNearMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		g, _ := RandomSP(rng, 2+rng.Intn(30), UniformWeights(1, 5))
		order, _ := g.TopoOrder()
		a, b := rng.Intn(g.N()), rng.Intn(g.N())
		if a > b {
			a, b = b, a
		}
		if u, v := order[a], order[b]; a != b && !g.HasEdge(u, v) {
			plus := g.Clone()
			plus.MustAddEdge(u, v)
			checkAgainstPrefixScan(t, "sp plus an edge", plus)
		}
		edges := g.Edges()
		for k := range edges {
			minus := New()
			minus.AddTasks(g.N(), 1)
			for j, f := range edges {
				if j != k {
					minus.MustAddEdge(f[0], f[1])
				}
			}
			checkAgainstPrefixScan(t, "sp minus an edge", minus)
		}
	}
}

// TestDecomposeSPAllSmallDAGs checks every DAG on at most six tasks: all
// forward-edge masks over the task order 0..n-1 (2¹⁵ at n = 6), each as
// given, transitively reduced, and with its task IDs reversed so edges run
// from high IDs to low.
func TestDecomposeSPAllSmallDAGs(t *testing.T) {
	for n := 1; n <= 6; n++ {
		var pairs [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		accepted := 0
		for mask := 0; mask < 1<<len(pairs); mask++ {
			g, rev := New(), New()
			g.AddTasks(n, 1)
			rev.AddTasks(n, 1)
			for k, p := range pairs {
				if mask&(1<<k) != 0 {
					g.MustAddEdge(p[0], p[1])
					rev.MustAddEdge(n-1-p[0], n-1-p[1])
				}
			}
			if checkAgainstPrefixScan(t, "small", g) {
				accepted++
			}
			if red, _ := g.TransitiveReduction(); red.M() < g.M() {
				checkAgainstPrefixScan(t, "small reduced", red)
			}
			checkAgainstPrefixScan(t, "small reversed IDs", rev)
			if t.Failed() {
				return
			}
		}
		t.Logf("n=%d: %d of %d edge masks series-parallel", n, accepted, 1<<len(pairs))
	}
}

func TestTreeToSPOutTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomOutTree(rng, 12, UniformWeights(1, 5))
	e, ok := TreeToSP(g)
	if !ok {
		t.Fatal("out-tree not converted")
	}
	// Materializing the expression must reproduce the tree's edges exactly.
	g2, err := MaterializeSP(e, g.Weights())
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("edge count %d vs %d", g2.M(), g.M())
	}
	for _, edge := range g.Edges() {
		if !g2.HasEdge(edge[0], edge[1]) {
			t.Fatalf("edge %v lost in conversion", edge)
		}
	}
}

func TestTreeToSPInTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomInTree(rng, 12, UniformWeights(1, 5))
	e, ok := TreeToSP(g)
	if !ok {
		t.Fatal("in-tree not converted")
	}
	g2, err := MaterializeSP(e, g.Weights())
	if err != nil {
		t.Fatal(err)
	}
	for _, edge := range g.Edges() {
		if !g2.HasEdge(edge[0], edge[1]) {
			t.Fatalf("edge %v lost in conversion", edge)
		}
	}
}

// treeToSPRecursive is the per-task recursion TreeToSP replaced (quadratic
// on chains, because every level re-copies the flattened series below it),
// kept as the oracle for the run-walking conversion.
func treeToSPRecursive(g *Graph) (*SPExpr, bool) {
	var out, in func(u int) *SPExpr
	out = func(u int) *SPExpr {
		if len(g.Succ(u)) == 0 {
			return SPLeaf(u)
		}
		var children []*SPExpr
		for _, v := range g.Succ(u) {
			children = append(children, out(v))
		}
		return SPSeriesOf(SPLeaf(u), SPParallelOf(children...))
	}
	in = func(u int) *SPExpr {
		if len(g.Pred(u)) == 0 {
			return SPLeaf(u)
		}
		var children []*SPExpr
		for _, v := range g.Pred(u) {
			children = append(children, in(v))
		}
		return SPSeriesOf(SPParallelOf(children...), SPLeaf(u))
	}
	if root, ok := g.IsOutTree(); ok {
		return out(root), true
	}
	if root, ok := g.IsInTree(); ok {
		return in(root), true
	}
	return nil, false
}

// TestTreeToSPMatchesRecursion pins the linear TreeToSP to the recursive
// construction, node for node, over random out-trees, in-trees, chains,
// forks, and joins.
func TestTreeToSPMatchesRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	w := UniformWeights(1, 5)
	families := []func(n int) *Graph{
		func(n int) *Graph { return RandomOutTree(rng, n, w) },
		func(n int) *Graph { return RandomInTree(rng, n, w) },
		func(n int) *Graph { return Chain(rng, n, w) },
		func(n int) *Graph { return Fork(rng, n, w) },
		func(n int) *Graph { return Join(rng, n, w) },
	}
	for i := 0; i < 1000; i++ {
		g := families[i%len(families)](1 + rng.Intn(40))
		got, ok := TreeToSP(g)
		want, wok := treeToSPRecursive(g)
		if ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d (n=%d): TreeToSP = %v (%v), recursion = %v (%v)", i, g.N(), got, ok, want, wok)
		}
	}
}

func TestTreeToSPRejectsDAG(t *testing.T) {
	g := New()
	g.AddTasks(4, 1)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	if _, ok := TreeToSP(g); ok {
		t.Fatal("diamond converted as tree")
	}
}

func TestChainExpr(t *testing.T) {
	e := ChainExpr([]int{2, 0, 1})
	if e.Kind != SPSeries || e.Size() != 3 {
		t.Fatalf("ChainExpr = %v", e)
	}
	tasks := e.Tasks()
	if tasks[0] != 2 || tasks[1] != 0 || tasks[2] != 1 {
		t.Fatalf("ChainExpr order = %v", tasks)
	}
}

func TestGeneratorsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		g    *Graph
	}{
		{"chain", Chain(rng, 8, UniformWeights(1, 2))},
		{"fork", Fork(rng, 8, UniformWeights(1, 2))},
		{"join", Join(rng, 8, UniformWeights(1, 2))},
		{"forkjoin", ForkJoin(rng, 4, 3, UniformWeights(1, 2))},
		{"layered", Layered(rng, 5, 4, 0.4, UniformWeights(1, 2))},
		{"gnp", GnpDAG(rng, 20, 0.2, UniformWeights(1, 2))},
		{"outtree", RandomOutTree(rng, 15, UniformWeights(1, 2))},
		{"intree", RandomInTree(rng, 15, UniformWeights(1, 2))},
		{"lu", LUElimination(4, 1)},
		{"stencil", Stencil(4, 5, 1)},
		{"fft", FFT(3, 1)},
		{"mapreduce", MapReduce(4, 2, 1, 2)},
		{"pipeline", Pipeline(3, 4, []float64{1, 2, 3})},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.g.N() == 0 {
			t.Fatalf("%s: empty graph", c.name)
		}
	}
}

func TestLayeredConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := Layered(rng, 6, 5, 0.1, ConstantWeights(1))
	// Even with tiny p, every non-first-layer task has at least one pred.
	srcCount := len(g.Sources())
	if srcCount != 5 {
		t.Fatalf("layered sources = %d, want width=5", srcCount)
	}
}

func TestLUEliminationStructure(t *testing.T) {
	g := LUElimination(3, 2)
	// b=3: factors 3, solves 2+1=3, updates (2*3/2=3)+(1)=4 → 10 tasks.
	if g.N() != 10 {
		t.Fatalf("LU n = %d, want 10", g.N())
	}
	// The first task is F(0) and must be the unique source.
	if s := g.Sources(); len(s) != 1 || g.Name(s[0]) != "F(0)" {
		t.Fatalf("LU sources = %v", s)
	}
	// Weights follow the 1:2:2 ratio scaled by 2.
	if g.Weight(0) != 2 {
		t.Fatalf("F weight = %v", g.Weight(0))
	}
}

func TestStencilWavefront(t *testing.T) {
	g := Stencil(3, 4, 1)
	if g.N() != 12 {
		t.Fatalf("n = %d", g.N())
	}
	// Critical path = rows + cols - 1 tasks.
	cpw, err := g.CriticalPathWeight()
	if err != nil || cpw != 6 {
		t.Fatalf("stencil critical path weight = %v, %v", cpw, err)
	}
}

func TestFFTStructure(t *testing.T) {
	g := FFT(3, 1)
	if g.N() != 4*8 {
		t.Fatalf("fft n = %d, want 32", g.N())
	}
	// Each non-input task has exactly 2 predecessors.
	for i := 8; i < g.N(); i++ {
		if len(g.Pred(i)) != 2 {
			t.Fatalf("fft task %d has %d preds", i, len(g.Pred(i)))
		}
	}
	// Critical path spans stages+1 unit-weight tasks.
	cpw, _ := g.CriticalPathWeight()
	if cpw != 4 {
		t.Fatalf("fft cpw = %v, want 4", cpw)
	}
}

func TestPipelineDependencies(t *testing.T) {
	g := Pipeline(2, 3, []float64{1, 2})
	// (s,k) id = k*stages+s. Check stage and item edges.
	if !g.HasEdge(0, 1) { // stage0→stage1 of item0
		t.Fatal("missing intra-item edge")
	}
	if !g.HasEdge(0, 2) { // item0→item1 of stage0
		t.Fatal("missing inter-item edge")
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"weights":  func() { UniformWeights(0, 1) },
		"constant": func() { ConstantWeights(-1) },
		"spexpr":   func() { RandomSPExpr(rand.New(rand.NewSource(1)), 0) },
		"lu":       func() { LUElimination(0, 1) },
		"stencil":  func() { Stencil(0, 1, 1) },
		"fft":      func() { FFT(0, 1) },
		"mr":       func() { MapReduce(0, 1, 1, 1) },
		"pipe":     func() { Pipeline(1, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: random SP graphs have exactly one component per top-level
// parallel branch, and GnpDAG respects topological numbering.
func TestGnpDAGTopological(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GnpDAG(rng, 15, 0.3, ConstantWeights(1))
		for _, e := range g.Edges() {
			if e[0] >= e[1] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
