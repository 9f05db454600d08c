package graph

import (
	"math/rand"
	"reflect"
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
