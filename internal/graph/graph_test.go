package graph

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func mustDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddTask("a", 1) // 0
	g.AddTask("b", 2) // 1
	g.AddTask("c", 3) // 2
	g.AddTask("d", 4) // 3
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	return g
}

func TestAddTaskAndDefaults(t *testing.T) {
	g := New()
	id := g.AddTask("", 2.5)
	if id != 0 || g.Name(0) != "T0" || g.Weight(0) != 2.5 {
		t.Fatalf("AddTask defaults wrong: id=%d name=%q w=%v", id, g.Name(0), g.Weight(0))
	}
	if g.N() != 1 || g.M() != 0 {
		t.Fatalf("N/M = %d/%d", g.N(), g.M())
	}
}

func TestAddTasksContiguous(t *testing.T) {
	g := New()
	g.AddTask("x", 1)
	first := g.AddTasks(3, 2)
	if first != 1 || g.N() != 4 {
		t.Fatalf("AddTasks first=%d n=%d", first, g.N())
	}
	for i := 1; i < 4; i++ {
		if g.Weight(i) != 2 {
			t.Fatalf("weight[%d]=%v", i, g.Weight(i))
		}
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	g.AddTask("a", 1)
	g.AddTask("b", 1)
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestTopoOrderDAG(t *testing.T) {
	g := mustDiamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for p, u := range order {
		pos[u] = p
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("topological violation on edge %v", e)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New()
	g.AddTask("a", 1)
	g.AddTask("b", 1)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a cycle")
	}
}

func TestValidateWeights(t *testing.T) {
	g := New()
	g.AddTask("a", 0)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted zero weight")
	}
	g2 := New()
	g2.AddTask("a", -1)
	if err := g2.Validate(); err == nil {
		t.Fatal("Validate accepted negative weight")
	}
}

func TestSourcesSinks(t *testing.T) {
	g := mustDiamond(t)
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("Sources = %v", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Fatalf("Sinks = %v", s)
	}
}

func TestCloneAndReverse(t *testing.T) {
	g := mustDiamond(t)
	c := g.Clone()
	c.SetWeight(0, 99)
	c.MustAddEdge(0, 3)
	if g.Weight(0) == 99 || g.HasEdge(0, 3) {
		t.Fatal("Clone aliases original")
	}
	r := g.Reverse()
	if !r.HasEdge(3, 1) || !r.HasEdge(1, 0) || r.HasEdge(0, 1) {
		t.Fatal("Reverse edges wrong")
	}
	if r.Weight(3) != 4 {
		t.Fatal("Reverse lost weights")
	}
}

func TestAnalyzeDiamond(t *testing.T) {
	g := mustDiamond(t)
	d := []float64{1, 2, 3, 4} // durations equal to weights
	pa, err := g.Analyze(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Longest path 0→2→3: 1+3+4 = 8.
	if pa.Makespan != 8 {
		t.Fatalf("makespan = %v, want 8", pa.Makespan)
	}
	wantEF := []float64{1, 3, 4, 8}
	for i, w := range wantEF {
		if pa.EarliestFinish[i] != w {
			t.Fatalf("EF[%d] = %v, want %v", i, pa.EarliestFinish[i], w)
		}
	}
	// Latest finishes against D=10: d must finish by 10; c by 6; b by 6; a by 3.
	wantLF := []float64{3, 6, 6, 10}
	for i, w := range wantLF {
		if pa.LatestFinish[i] != w {
			t.Fatalf("LF[%d] = %v, want %v", i, pa.LatestFinish[i], w)
		}
	}
	if len(pa.Critical) != 3 || pa.Critical[0] != 0 || pa.Critical[1] != 2 || pa.Critical[2] != 3 {
		t.Fatalf("critical path = %v, want [0 2 3]", pa.Critical)
	}
}

func TestSlackAndDeadline(t *testing.T) {
	g := mustDiamond(t)
	d := []float64{1, 2, 3, 4}
	slack, err := g.Slack(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Critical path tasks have zero slack at D = makespan.
	for _, i := range []int{0, 2, 3} {
		if math.Abs(slack[i]) > 1e-12 {
			t.Fatalf("critical task %d has slack %v", i, slack[i])
		}
	}
	if slack[1] != 1 { // b: LF=4 (d starts at 4), EF=3
		t.Fatalf("slack[1] = %v, want 1", slack[1])
	}
}

func TestCriticalPathWeightAndMinimalDeadline(t *testing.T) {
	g := mustDiamond(t)
	cpw, err := g.CriticalPathWeight()
	if err != nil || cpw != 8 {
		t.Fatalf("CriticalPathWeight = %v, %v", cpw, err)
	}
	dmin, err := g.MinimalDeadline(2)
	if err != nil || dmin != 4 {
		t.Fatalf("MinimalDeadline = %v, %v", dmin, err)
	}
	if _, err := g.MinimalDeadline(0); err == nil {
		t.Fatal("MinimalDeadline accepted smax=0")
	}
}

func TestAnalyzeDurationMismatch(t *testing.T) {
	g := mustDiamond(t)
	if _, err := g.Analyze([]float64{1}, 5); err == nil {
		t.Fatal("expected duration-length error")
	}
}

// transitiveClosureReach is the n×n boolean closure TransitiveReduction
// used before its bitset rows, kept as their oracle: reach[u][v] reports a
// path from u to v (u itself excluded). O(n·m) time, n² bytes.
func transitiveClosureReach(g *Graph) ([][]bool, error) {
	n := g.N()
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for k := len(order) - 1; k >= 0; k-- {
		u := order[k]
		for _, v := range g.succ[u] {
			reach[u][v] = true
			for w := 0; w < n; w++ {
				if reach[v][w] {
					reach[u][w] = true
				}
			}
		}
	}
	return reach, nil
}

// transitiveReductionReach is the reduction over the boolean closure: it
// keeps g's edge order, as the bitset reduction must.
func transitiveReductionReach(g *Graph) [][2]int {
	reach, err := transitiveClosureReach(g)
	if err != nil {
		return nil
	}
	out := [][2]int{}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.succ[u] {
			redundant := false
			for _, w := range g.succ[u] {
				if w != v && reach[w][v] {
					redundant = true
					break
				}
			}
			if !redundant {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// TestTransitiveReductionMatchesBoolClosure pins the bitset reduction to
// the boolean-closure one edge for edge, in the same order, on every
// generator (shortcut-heavy GnpDAG included) and on sizes that straddle
// the 64-bit word boundary.
func TestTransitiveReductionMatchesBoolClosure(t *testing.T) {
	for _, c := range generatorCases() {
		for _, g := range c.graphs {
			got, err := g.TransitiveReduction()
			if err != nil {
				t.Fatal(err)
			}
			if want := transitiveReductionReach(g); !reflect.DeepEqual(got.Edges(), want) {
				t.Fatalf("%s (n=%d, m=%d): bitset reduction %v, boolean closure %v", c.name, g.N(), g.M(), got.Edges(), want)
			}
		}
	}
}

func TestTransitiveClosureReach(t *testing.T) {
	g := mustDiamond(t)
	reach, err := transitiveClosureReach(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reach[0][3] || !reach[0][1] || !reach[1][3] {
		t.Fatal("missing reachability")
	}
	if reach[1][2] || reach[3][0] || reach[0][0] {
		t.Fatal("spurious reachability")
	}
}

func TestTransitiveReduction(t *testing.T) {
	g := mustDiamond(t)
	g.MustAddEdge(0, 3) // redundant shortcut
	r, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if r.HasEdge(0, 3) {
		t.Fatal("redundant edge survived reduction")
	}
	if r.M() != 4 {
		t.Fatalf("reduced M = %d, want 4", r.M())
	}
	// Reduction preserves reachability.
	before, _ := transitiveClosureReach(g)
	after, _ := transitiveClosureReach(r)
	for u := range before {
		for v := range before[u] {
			if before[u][v] != after[u][v] {
				t.Fatalf("reachability changed at (%d,%d)", u, v)
			}
		}
	}
}

func TestIsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Chain(rng, 5, ConstantWeights(1))
	order, ok := g.IsChain()
	if !ok || len(order) != 5 {
		t.Fatalf("IsChain = %v, %v", order, ok)
	}
	for i := 0; i < 4; i++ {
		if !g.HasEdge(order[i], order[i+1]) {
			t.Fatal("chain order not consecutive")
		}
	}
	if _, ok := mustDiamond(t).IsChain(); ok {
		t.Fatal("diamond recognized as chain")
	}
	if _, ok := New().IsChain(); ok {
		t.Fatal("empty graph recognized as chain")
	}
}

func TestIsForkAndJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := Fork(rng, 4, ConstantWeights(1))
	if s, ok := f.IsFork(); !ok || s != 0 {
		t.Fatalf("IsFork = %d, %v", s, ok)
	}
	if _, ok := f.IsJoin(); ok {
		t.Fatal("fork recognized as join")
	}
	j := Join(rng, 4, ConstantWeights(1))
	if s, ok := j.IsJoin(); !ok || s != 4 {
		t.Fatalf("IsJoin = %d, %v", s, ok)
	}
	if _, ok := j.IsFork(); ok {
		t.Fatal("join recognized as fork")
	}
	if _, ok := mustDiamond(t).IsFork(); ok {
		t.Fatal("diamond recognized as fork")
	}
}

func TestIsOutTreeInTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ot := RandomOutTree(rng, 10, ConstantWeights(1))
	if root, ok := ot.IsOutTree(); !ok || root != 0 {
		t.Fatalf("IsOutTree = %d, %v", root, ok)
	}
	it := RandomInTree(rng, 10, ConstantWeights(1))
	if _, ok := it.IsInTree(); !ok {
		t.Fatal("RandomInTree not recognized")
	}
	if _, ok := mustDiamond(t).IsOutTree(); ok {
		t.Fatal("diamond recognized as out-tree")
	}
	// A forest (two roots) is not an out-tree.
	forest := New()
	forest.AddTask("", 1)
	forest.AddTask("", 1)
	if _, ok := forest.IsOutTree(); ok {
		t.Fatal("forest recognized as out-tree")
	}
}

func TestConnectivity(t *testing.T) {
	g := mustDiamond(t)
	if !g.IsConnected() {
		t.Fatal("diamond not connected")
	}
	g.AddTask("island", 1)
	if g.IsConnected() {
		t.Fatal("island not detected")
	}
	comps := g.WeaklyConnectedComponents()
	if len(comps) != 2 || len(comps[0]) != 4 || len(comps[1]) != 1 {
		t.Fatalf("components = %v", comps)
	}
	if New().IsConnected() != true {
		t.Fatal("empty graph should count as connected")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := mustDiamond(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var h Graph
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip lost structure: %v vs %v", h.String(), g.String())
	}
	for i := 0; i < g.N(); i++ {
		if h.Weight(i) != g.Weight(i) || h.Name(i) != g.Name(i) {
			t.Fatalf("task %d mismatch", i)
		}
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"tasks":[{"name":"a","weight":1}],"edges":[[0,5]]}`), &g); err == nil {
		t.Fatal("accepted out-of-range edge")
	}
	if err := json.Unmarshal([]byte(`{"tasks":[{"name":"a","weight":-1}],"edges":[]}`), &g); err == nil {
		t.Fatal("accepted negative weight")
	}
	if err := json.Unmarshal([]byte(`not json`), &g); err == nil {
		t.Fatal("accepted garbage")
	}
	// Cycle.
	if err := json.Unmarshal([]byte(`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":1}],"edges":[[0,1],[1,0]]}`), &g); err == nil {
		t.Fatal("accepted cycle")
	}
}

func TestToDOT(t *testing.T) {
	g := mustDiamond(t)
	dot := g.ToDOT("diamond")
	for _, want := range []string{"digraph", "n0 -> n1", "n2 -> n3", "w=1"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestStringer(t *testing.T) {
	s := mustDiamond(t).String()
	if !strings.Contains(s, "n=4") || !strings.Contains(s, "m=4") {
		t.Fatalf("String = %q", s)
	}
}

func TestTotalWeight(t *testing.T) {
	if w := mustDiamond(t).TotalWeight(); w != 10 {
		t.Fatalf("TotalWeight = %v, want 10", w)
	}
}
