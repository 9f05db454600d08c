package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platform"
)

func TestParseModes(t *testing.T) {
	modes, err := parseModes("2, 0.5 ,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 3 || modes[0] != 0.5 || modes[2] != 2 {
		t.Fatalf("modes = %v (should be sorted)", modes)
	}
	if _, err := parseModes("1,abc"); err == nil {
		t.Fatal("accepted bad mode")
	}
}

func TestBuildModel(t *testing.T) {
	m, err := buildModel("continuous", "", 0.5, 2, 0.25)
	if err != nil || m.Kind != model.Continuous {
		t.Fatalf("continuous: %v %v", m, err)
	}
	m, err = buildModel("discrete", "1,2", 0.5, 2, 0.25)
	if err != nil || m.Kind != model.Discrete || m.NumModes() != 2 {
		t.Fatalf("discrete: %v %v", m, err)
	}
	m, err = buildModel("vdd", "1,2", 0.5, 2, 0.25)
	if err != nil || m.Kind != model.VddHopping {
		t.Fatalf("vdd: %v %v", m, err)
	}
	m, err = buildModel("incremental", "", 0.5, 2, 0.25)
	if err != nil || m.Kind != model.Incremental {
		t.Fatalf("incremental: %v %v", m, err)
	}
	if _, err := buildModel("quantum", "", 0.5, 2, 0.25); err == nil {
		t.Fatal("accepted unknown model")
	}
	if _, err := buildModel("discrete", "2,1,junk", 0.5, 2, 0.25); err == nil {
		t.Fatal("accepted bad modes for discrete")
	}
}

func TestLoadOrGenerateAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, gen := range []string{"chain", "fork", "join", "forkjoin", "layered",
		"gnp", "tree", "sp", "lu", "stencil", "fft", "pipeline"} {
		g, err := loadOrGenerate("", gen, 5, rng)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", gen, err)
		}
	}
	if _, err := loadOrGenerate("", "nonsense", 5, rng); err == nil {
		t.Fatal("accepted unknown generator")
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, _ := loadOrGenerate("", "fork", 4, rng)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := loadOrGenerate(path, "", 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("file round trip lost structure")
	}
	if _, err := loadOrGenerate(filepath.Join(t.TempDir(), "missing.json"), "", 0, rng); err == nil {
		t.Fatal("accepted missing file")
	}
}

func TestLoadMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := loadOrGenerate("", "chain", 4, rng)
	m := &platform.Mapping{Order: [][]int{{0, 1}, {2, 3}}}
	data, _ := json.Marshal(m)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := loadMapping(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != 4 {
		t.Fatalf("mapping = %+v", back)
	}
	// Incomplete mapping rejected against the graph.
	bad := &platform.Mapping{Order: [][]int{{0}}}
	badData, _ := json.Marshal(bad)
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, badData, 0o644)
	if _, err := loadMapping(badPath, g); err == nil {
		t.Fatal("accepted incomplete mapping")
	}
}

func TestBuildMappingKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, _ := loadOrGenerate("", "gnp", 12, rng)
	for _, kind := range []string{"list", "rr", "single", "random"} {
		m, err := buildMapping(g, kind, 3, rng)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := m.Validate(g); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := buildMapping(g, "hexagonal", 3, rng); err == nil {
		t.Fatal("accepted unknown mapping kind")
	}
}

func TestRunComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, _ := loadOrGenerate("", "layered", 8, rng)
	m, _ := buildMapping(g, "list", 2, rng)
	eg, err := platform.BuildExecutionGraph(g, m)
	if err != nil {
		t.Fatal(err)
	}
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := core.NewProblem(eg, dmin*1.5)
	if err := runComparison(p, m, "0.5,1,2", 0.5, 2, 0.5, 4); err != nil {
		t.Fatal(err)
	}
	// Bad modes propagate.
	if err := runComparison(p, m, "junk", 0.5, 2, 0.5, 4); err == nil {
		t.Fatal("accepted bad modes")
	}
}

func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _ := loadOrGenerate("", "gnp", 8, rng)
	m, _ := buildMapping(g, "list", 2, rng)
	eg, err := platform.BuildExecutionGraph(g, m)
	if err != nil {
		t.Fatal(err)
	}
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := core.NewProblem(eg, dmin*2)

	cm, _ := model.NewContinuous(2)
	dm, _ := model.NewDiscrete([]float64{0.5, 1, 2})
	vm, _ := model.NewVddHopping([]float64{0.5, 1, 2})
	im, _ := model.NewIncremental(0.5, 2, 0.5)

	cases := []struct {
		solver string
		m      model.Model
	}{
		{"auto", cm}, {"auto", dm}, {"auto", vm}, {"auto", im},
		{"numeric", cm}, {"bb", dm}, {"greedy", dm}, {"roundup", dm},
		{"approx", im}, {"approx", dm}, {"uniform", cm}, {"allmax", cm},
	}
	for _, c := range cases {
		sol, err := solve(p, c.m, c.solver, 4)
		if err != nil {
			t.Fatalf("solver %s on %s: %v", c.solver, c.m.Kind, err)
		}
		if err := p.Verify(sol, 1e-6); err != nil {
			t.Fatalf("solver %s on %s: %v", c.solver, c.m.Kind, err)
		}
	}
	if _, err := solve(p, cm, "psychic", 4); err == nil {
		t.Fatal("accepted unknown solver")
	}
	// -solver sp on a non-SP graph should explain itself.
	if _, err := solve(p, dm, "sp", 4); err == nil {
		// The random graph may happen to be SP; only fail when it solved a
		// non-SP graph. Check decomposability to decide.
		red, _ := p.G.TransitiveReduction()
		if red != nil {
			// If it is genuinely SP this is fine.
			t.Skip("graph happened to be series-parallel")
		}
	}
}

// TestSolveAutoRunsThePlan: -solver auto runs the routing -plan prints, on
// a Discrete instance above 16 tasks too (the plan routes it to
// branch-and-bound), and answers with Plan.Execute's energy.
func TestSolveAutoRunsThePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := loadOrGenerate("", "tree", 24, rng)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := buildMapping(g, "list", 24, rng)
	if err != nil {
		t.Fatal(err)
	}
	eg, err := platform.BuildExecutionGraph(g, mapping)
	if err != nil {
		t.Fatal(err)
	}
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := core.NewProblem(eg, dmin*2)
	dm, _ := model.NewDiscrete([]float64{0.5, 1, 1.5, 2})
	pl, err := plan.Analyze(p, dm, plan.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.Execute()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solve(p, dm, "auto", 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.G.N() <= 16 || len(pl.Components) != 1 {
		t.Fatalf("fixture: %d tasks in %d components, want one component above 16 tasks", p.G.N(), len(pl.Components))
	}
	if sol.Stats.Algorithm != pl.Components[0].Solver || sol.Energy != want.Energy {
		t.Fatalf("auto solved with %s (energy %.9g), the plan routes %s (energy %.9g)",
			sol.Stats.Algorithm, sol.Energy, pl.Components[0].Solver, want.Energy)
	}
}

// TestSummaryPrintsCertificate: an interior-point answer prints its
// certified lower bound and gap. The instance is the one
// `-gen layered -n 128 -procs 128 -factor 1.4 -solver numeric` builds.
func TestSummaryPrintsCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := loadOrGenerate("", "layered", 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := buildMapping(g, "list", 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	eg, err := platform.BuildExecutionGraph(g, mapping)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := eg.MinimalDeadline(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(eg, dmin*1.4)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := model.NewContinuous(2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solve(p, cm, "numeric", 8)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printSummary(&out, sol, p.Deadline)
	for _, line := range strings.Split(out.String(), "\n") {
		var lb, gap float64
		if _, err := fmt.Sscanf(line, "lower bound: %g (gap %g)", &lb, &gap); err != nil {
			continue
		}
		if !(lb > 0) || gap < 0 || gap > 1e-9 {
			t.Fatalf("lower bound %g, gap %g: want a gap in [0, 1e-9]\n%s", lb, gap, out.String())
		}
		return
	}
	t.Fatalf("no lower bound line in\n%s", out.String())
}
