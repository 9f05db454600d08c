package core

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
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
