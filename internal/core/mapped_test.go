package core

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/workload"
)

func openInstance(t *testing.T, family string, n int, seed int64) *graph.Mapped {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.egrf")
	if err := workload.WriteInstanceFile(path, family, n, seed, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	mg, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

// The mapped solver must agree with the in-memory planner on every
// family small enough to solve both ways.
func TestSolveMappedContinuousMatchesInMemory(t *testing.T) {
	const smax = 2.0
	cases := []struct {
		family string
		n      int
		seed   int64
	}{
		{"chain", 200, 41},
		{"layered", 48, 42},
		{"gnp", 36, 43},
		{"multi", 4, 44},
		{"mixed", 5, 45}, // chains + layered DAGs: exercises both paths at once
		{"sp", 30, 46},
		{"fork", 20, 47},
	}
	for _, c := range cases {
		mg := openInstance(t, c.family, c.n, c.seed)
		g, err := workload.FromSeed(c.family, c.n, c.seed, 0.5, 3)
		if err != nil {
			t.Fatalf("%s: %v", c.family, err)
		}
		dmin, err := MappedMinimalDeadline(mg, smax)
		if err != nil {
			t.Fatalf("%s: mapped dmin: %v", c.family, err)
		}
		wantDmin, err := g.MinimalDeadline(smax)
		if err != nil {
			t.Fatalf("%s: dmin: %v", c.family, err)
		}
		if rel := math.Abs(dmin-wantDmin) / math.Max(1, wantDmin); rel > 1e-12 {
			t.Errorf("%s: mapped dmin %.15g vs %.15g", c.family, dmin, wantDmin)
		}
		deadline := dmin * 1.5
		res, err := SolveMappedContinuous(mg, deadline, smax, ContinuousOptions{})
		if err != nil {
			t.Fatalf("%s: mapped solve: %v", c.family, err)
		}
		p, err := NewProblem(g, deadline)
		if err != nil {
			t.Fatalf("%s: %v", c.family, err)
		}
		want, err := p.SolveContinuous(smax, ContinuousOptions{})
		if err != nil {
			t.Fatalf("%s: in-memory solve: %v", c.family, err)
		}
		if rel := math.Abs(res.Energy-want.Energy) / math.Max(1, want.Energy); rel > 1e-7 {
			t.Errorf("%s: mapped energy %.15g vs in-memory %.15g (rel %g)",
				c.family, res.Energy, want.Energy, rel)
		}
		if res.Tasks != g.N() || res.Edges != g.M() {
			t.Errorf("%s: dims (%d,%d) vs (%d,%d)", c.family, res.Tasks, res.Edges, g.N(), g.M())
		}
	}
}

// TestSolveMappedContinuousDeterministic: the mapped energy adds its
// components in a fixed order, so repeated solves agree to the bit, and
// every one matches the planner on the materialized graph.
func TestSolveMappedContinuousDeterministic(t *testing.T) {
	const smax = 2.0
	mg := openInstance(t, "multi", 32, 61)
	g, err := workload.FromSeed("multi", 32, 61, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := MappedMinimalDeadline(mg, smax)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, dmin*1.5)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := model.NewContinuous(smax)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.SolvePlanned(cm, PlannedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var first float64
	for run := 0; run < 10; run++ {
		res, err := SolveMappedContinuous(mg, p.Deadline, smax, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res.Energy
		} else if res.Energy != first {
			t.Fatalf("run %d: energy %.17g, run 0: %.17g", run, res.Energy, first)
		}
		if rel := math.Abs(res.Energy-want.Energy) / want.Energy; rel > 1e-12 {
			t.Fatalf("run %d: mapped energy %.17g, planner %.17g (rel %g)", run, res.Energy, want.Energy, rel)
		}
	}
}

// mixed is the classification stress: every fourth component is a
// layered DAG (materialized), the rest are chains (streamed).
func TestSolveMappedContinuousClassification(t *testing.T) {
	const smax = 2.0
	mg := openInstance(t, "mixed", 8, 51)
	dmin, err := MappedMinimalDeadline(mg, smax)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveMappedContinuous(mg, dmin*1.5, smax, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 8 {
		t.Fatalf("Components = %d, want 8", res.Components)
	}
	if res.StreamedChains != 6 {
		t.Fatalf("StreamedChains = %d, want 6 (components 4 and 8 are layered)", res.StreamedChains)
	}
	if res.MaterializedTasks == 0 || res.MaterializedTasks >= res.Tasks {
		t.Fatalf("MaterializedTasks = %d of %d — only the layered parts should materialize",
			res.MaterializedTasks, res.Tasks)
	}
}

func TestSolveMappedContinuousInfeasible(t *testing.T) {
	mg := openInstance(t, "chain", 100, 52)
	dmin, err := MappedMinimalDeadline(mg, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveMappedContinuous(mg, dmin*0.5, 2.0, ContinuousOptions{}); err == nil {
		t.Fatal("infeasible deadline accepted")
	}
}

// The out-of-core contract on a 262144-task chain: the mapped solve
// streams the closed form without materializing anything, so its heap
// traffic must stay far below what merely building the in-memory Graph
// costs. (Peak RSS itself is not observable per-call; allocation volume
// is the portable proxy.)
func TestSolveMappedContinuousHugeChainFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("huge instance in -short mode")
	}
	const n = 262144
	const smax = 2.0
	path := filepath.Join(t.TempDir(), "huge.egrf")
	if err := workload.WriteInstanceFile(path, "chain", n, 61, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	mg, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()

	allocDelta := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var res *MappedResult
	solveAlloc := allocDelta(func() {
		dmin, err := MappedMinimalDeadline(mg, smax)
		if err != nil {
			t.Fatal(err)
		}
		res, err = SolveMappedContinuous(mg, dmin*1.5, smax, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.Tasks != n || res.StreamedChains != 1 || res.MaterializedTasks != 0 {
		t.Fatalf("huge chain not streamed: %+v", res)
	}
	// Oracle: uniform speed W/D on the whole chain.
	W := mg.TotalWeight()
	D := W / smax * 1.5
	want := W * (W / D) * (W / D)
	if rel := math.Abs(res.Energy-want) / want; rel > 1e-12 {
		t.Fatalf("huge chain energy %.15g vs closed form %.15g (rel %g)", res.Energy, want, rel)
	}

	var g *graph.Graph
	materializeAlloc := allocDelta(func() {
		var err error
		g, err = mg.Graph()
		if err != nil {
			t.Fatal(err)
		}
	})
	if g.N() != n {
		t.Fatal("materialization lost tasks")
	}
	if solveAlloc >= materializeAlloc {
		t.Fatalf("mapped solve allocated %d bytes ≥ materializing the Graph (%d bytes) — not out-of-core",
			solveAlloc, materializeAlloc)
	}
	t.Logf("mapped solve: %d bytes allocated; Graph materialization alone: %d bytes", solveAlloc, materializeAlloc)
}

// writeEGRF writes an EGRF file by hand, edges in the given order, so a
// test can build instances that MappedWriter refuses to write.
func writeEGRF(t *testing.T, weights []float64, edges [][2]int) *graph.Mapped {
	t.Helper()
	buf := []byte(graph.MappedMagic)
	buf = binary.BigEndian.AppendUint32(buf, graph.MappedVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(weights)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(edges)))
	for _, w := range weights {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(w))
	}
	for _, e := range edges {
		buf = binary.BigEndian.AppendUint64(buf, uint64(e[0])<<32|uint64(uint32(e[1])))
	}
	path := filepath.Join(t.TempDir(), "hand.egrf")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	mg, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

// Each non-chain component is materialized as the in-memory graph's
// induced subgraph: local IDs in ascending task ID and edges in the
// mapping's order, the numbering the component's solve depends on to
// the bit.
func TestMappedComponentGraphs(t *testing.T) {
	mg := openInstance(t, "mixed", 8, 66)
	full, err := mg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanMapped(mg)
	if err != nil {
		t.Fatal(err)
	}
	grouped := 0
	for _, c := range sc.comps {
		if c.isStreamableChain() {
			continue
		}
		var nodes []int
		for _, u := range sc.members[c.start : c.start+c.size] {
			nodes = append(nodes, int(u))
		}
		want, _, err := full.InducedSubgraph(nodes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.graph(c)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Weights(), want.Weights()) || !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("component at %d: materialized %v, induced subgraph %v", c.start, got.Edges(), want.Edges())
		}
		grouped += c.size
	}
	if grouped != len(sc.members) || grouped == 0 {
		t.Fatalf("%d grouped tasks, components hold %d", len(sc.members), grouped)
	}
}

// TestSolveMappedContinuousAnyWorkers: the components solve concurrently
// on GOMAXPROCS workers, and the energy is the same bits at 1, 2 and 4.
func TestSolveMappedContinuousAnyWorkers(t *testing.T) {
	const smax = 2.0
	mg := openInstance(t, "multi", 32, 62)
	dmin, err := MappedMinimalDeadline(mg, smax)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *MappedResult
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := SolveMappedContinuous(mg, dmin*1.5, smax, ContinuousOptions{})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if first == nil {
			first = res
		} else if *res != *first {
			t.Fatalf("GOMAXPROCS %d: %+v (energy %.17g), GOMAXPROCS 1: %+v (energy %.17g)",
				procs, *res, res.Energy, *first, first.Energy)
		}
	}
}

// TestSolveMappedContinuousCountsMatchPlanned: Newton and
// MaterializedTasks are the sums over the planner's components, the
// chains aside.
func TestSolveMappedContinuousCountsMatchPlanned(t *testing.T) {
	const smax = 2.0
	for _, c := range []struct {
		family string
		n      int
		seed   int64
	}{{"multi", 16, 63}, {"mixed", 8, 64}} {
		mg := openInstance(t, c.family, c.n, c.seed)
		g, err := workload.FromSeed(c.family, c.n, c.seed, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		dmin, err := MappedMinimalDeadline(mg, smax)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveMappedContinuous(mg, dmin*1.5, smax, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(g, dmin*1.5)
		if err != nil {
			t.Fatal(err)
		}
		comps, err := p.SplitComponents()
		if err != nil {
			t.Fatal(err)
		}
		cm, err := model.NewContinuous(smax)
		if err != nil {
			t.Fatal(err)
		}
		newton, materialized, chains := 0, 0, 0
		for _, comp := range comps {
			if _, ok := comp.Prob.G.IsChain(); ok {
				chains++
				continue
			}
			sol, err := comp.Prob.SolvePlanned(cm, PlannedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			newton += sol.Stats.Newton
			materialized += comp.Prob.G.N()
		}
		if res.Newton != newton || res.MaterializedTasks != materialized {
			t.Fatalf("%s: Newton %d, MaterializedTasks %d; planner components: %d, %d",
				c.family, res.Newton, res.MaterializedTasks, newton, materialized)
		}
		if res.Components != len(comps) || res.StreamedChains != chains {
			t.Fatalf("%s: %d components, %d streamed; planner: %d components, %d chains",
				c.family, res.Components, res.StreamedChains, len(comps), chains)
		}
	}
}

// A non-chain component past the deadline fails with ErrInfeasible as
// an inline solve would: the stage's wrapper does not reach the caller.
func TestSolveMappedContinuousInfeasibleComponent(t *testing.T) {
	// A singleton (feasible) and two diamonds needing D ≥ 12/smax = 6.
	diamond := func(s int) [][2]int { return [][2]int{{s, s + 1}, {s, s + 2}, {s + 1, s + 3}, {s + 2, s + 3}} }
	mg := writeEGRF(t, []float64{1, 4, 4, 4, 4, 4, 4, 4, 4}, append(diamond(1), diamond(5)...))
	_, err := SolveMappedContinuous(mg, 3, 2, ContinuousOptions{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	var se *pipeline.Error
	if errors.As(err, &se) {
		t.Fatalf("err = %v carries the pipeline stage wrapper", err)
	}
	if _, err := SolveMappedContinuous(mg, 6.5, 2, ContinuousOptions{}); err != nil {
		t.Fatalf("feasible deadline: %v", err)
	}
}

// malformedCase is a hand-written instance both mapped entry points
// must reject.
type malformedCase struct {
	name    string
	weights []float64
	edges   [][2]int
	want    error // nil: any error
}

func checkMappedRejects(t *testing.T, cases []malformedCase) {
	t.Helper()
	for _, c := range cases {
		mg := writeEGRF(t, c.weights, c.edges)
		_, errD := MappedMinimalDeadline(mg, 2)
		_, errS := SolveMappedContinuous(mg, 100, 2, ContinuousOptions{})
		for entry, err := range map[string]error{"MappedMinimalDeadline": errD, "SolveMappedContinuous": errS} {
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Errorf("%s: %s: err = %v, want %v", c.name, entry, err, c.want)
			}
		}
	}
}

// Both entry points reject a malformed instance, wherever its fault sits.
func TestMappedRejectsMalformed(t *testing.T) {
	five := []float64{1, 2, 3, 4, 5}
	checkMappedRejects(t, []malformedCase{
		{"cycle", five[:3], [][2]int{{0, 1}, {1, 2}, {2, 0}}, graph.ErrCycle},
		{"cycle in a branching component", five, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 1}}, graph.ErrCycle},
		{"duplicate edge", five[:2], [][2]int{{0, 1}, {0, 1}}, nil},
		{"duplicate edge in a branching component", five[:3], [][2]int{{0, 1}, {0, 2}, {0, 2}}, nil},
		{"self-loop", five[:2], [][2]int{{0, 1}, {1, 1}}, nil},
		{"endpoint out of range", five[:2], [][2]int{{0, 1}, {1, 7}}, nil},
	})
	// A non-positive weight only matters to the solve, as in NewProblem.
	mg := writeEGRF(t, []float64{1, 0, 1}, [][2]int{{0, 1}, {0, 2}})
	if _, err := MappedMinimalDeadline(mg, 2); err != nil {
		t.Errorf("zero weight: MappedMinimalDeadline: %v", err)
	}
	if _, err := SolveMappedContinuous(mg, 100, 2, ContinuousOptions{}); err == nil {
		t.Error("zero weight in a non-chain component accepted")
	}
}

// The out-edge offsets need the EGRF order, edges ascending by (source,
// target): a file that breaks it is not an EGRF instance, even where
// its graph is a well-formed chain.
func TestMappedRejectsUnsortedEdges(t *testing.T) {
	three := []float64{1, 2, 3}
	checkMappedRejects(t, []malformedCase{
		{"unsorted chain", three, [][2]int{{1, 2}, {0, 1}}, graph.ErrMappedFormat},
		{"unsorted targets", three, [][2]int{{0, 2}, {0, 1}}, graph.ErrMappedFormat},
	})
}

// An injected stage error or panic comes back from SolveMappedContinuous
// as ErrInjected or ErrPanic, and no stage worker outlives the call.
func TestSolveMappedContinuousFaults(t *testing.T) {
	const smax = 2.0
	mg := openInstance(t, "multi", 8, 65)
	dmin, err := MappedMinimalDeadline(mg, smax)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(resilience.Disarm)
	before := runtime.NumGoroutine()
	for _, c := range []struct {
		faults resilience.SiteFaults
		want   error
	}{
		{resilience.SiteFaults{ErrorRate: 1, Times: 1}, resilience.ErrInjected},
		{resilience.SiteFaults{PanicRate: 1, Times: 1}, resilience.ErrPanic},
	} {
		resilience.Arm(resilience.NewFaults(1, map[resilience.Site]resilience.SiteFaults{resilience.SitePipeline: c.faults}))
		_, err := SolveMappedContinuous(mg, dmin*1.5, smax, ContinuousOptions{})
		resilience.Disarm()
		if !errors.Is(err, c.want) {
			t.Fatalf("err = %v, want %v", err, c.want)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the faulted solves, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := SolveMappedContinuous(mg, dmin*1.5, smax, ContinuousOptions{}); err != nil {
		t.Fatalf("disarmed: %v", err)
	}
}
