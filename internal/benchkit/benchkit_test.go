package benchkit

import (
	"testing"
)

// TestRegistryCoverage pins the acceptance floor of the scenario table:
// ≥ 28 scenarios, ≥ 6 graph families, all four energy models, all five
// solve paths, unique names, and every scenario buildable (graph
// generated, deadline feasible, path bound) without running it.
func TestRegistryCoverage(t *testing.T) {
	scenarios := Registry()
	if len(scenarios) < 28 {
		t.Fatalf("registry holds %d scenarios, want ≥ 28", len(scenarios))
	}
	names := make(map[string]bool)
	families := make(map[string]bool)
	models := make(map[string]bool)
	paths := make(map[string]bool)
	for _, s := range scenarios {
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		families[s.Family] = true
		models[s.Model.Kind] = true
		paths[s.Path] = true

		r, err := s.build()
		if err != nil {
			t.Fatalf("scenario %s does not build: %v", s.Name, err)
		}
		r.close()
		if r.tasks <= 0 || r.deadline <= 0 {
			t.Fatalf("scenario %s built an empty instance: %d tasks, deadline %g", s.Name, r.tasks, r.deadline)
		}
	}
	if len(families) < 6 {
		t.Fatalf("registry spans %d families, want ≥ 6", len(families))
	}
	if len(models) != 4 {
		t.Fatalf("registry spans %d models, want all 4: %v", len(models), models)
	}
	if len(paths) != 5 {
		t.Fatalf("registry spans %d paths, want all 5: %v", len(paths), paths)
	}
}

// TestRunOnePerPath smoke-runs one cheap scenario per solve path and
// checks the statistics are coherent.
func TestRunOnePerPath(t *testing.T) {
	for _, name := range []string{
		"chain-256-continuous-direct",
		"mapreduce-8-discrete-planner",
		"chain-32-vdd-service",
	} {
		t.Run(name, func(t *testing.T) {
			matched, err := Match("^" + name + "$")
			if err != nil || len(matched) != 1 {
				t.Fatalf("Match(%q) = %d scenarios, err %v", name, len(matched), err)
			}
			res, err := Run(matched[0], Options{Warmup: 1, Reps: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Energy <= 0 {
				t.Fatalf("non-positive energy %g", res.Energy)
			}
			if !(res.MinMS <= res.P50MS && res.P50MS <= res.P90MS && res.P90MS <= res.MaxMS) {
				t.Fatalf("percentiles out of order: %+v", res)
			}
			if res.Reps != 3 || res.Warmup != 1 {
				t.Fatalf("options not honored: %+v", res)
			}
		})
	}
}

// TestStreamScenarioPair is the streaming API's acceptance benchmark on
// the 32-component disconnected workload: the first merged `component`
// event lands before the monolithic solve returns, and the streamed
// terminal result carries the identical total energy.
func TestStreamScenarioPair(t *testing.T) {
	run := func(name string) *Result {
		t.Helper()
		matched, err := Match("^" + name + "$")
		if err != nil || len(matched) != 1 {
			t.Fatalf("Match(%q) = %d scenarios, err %v", name, len(matched), err)
		}
		res, err := Run(matched[0], Options{Warmup: 1, Reps: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mono := run("multi-32-continuous-service-mono")
	first := run("multi-32-continuous-stream-first")
	last := run("multi-32-continuous-stream-last")

	if first.P50MS >= mono.P50MS {
		t.Fatalf("first component at p50 %.3f ms did not beat the monolithic return at %.3f ms",
			first.P50MS, mono.P50MS)
	}
	if diff := last.Energy - mono.Energy; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("streamed energy %g diverges from monolithic %g", last.Energy, mono.Energy)
	}
	// The first-component sample carries the partial running energy:
	// positive, but strictly inside the total.
	if first.Energy <= 0 || first.Energy >= last.Energy {
		t.Fatalf("first-component running energy %g outside (0, %g)", first.Energy, last.Energy)
	}
}

// TestRunDeterministicEnergy runs the same scenario twice and expects
// the identical objective value — the correctness anchor that makes two
// reports comparable.
func TestRunDeterministicEnergy(t *testing.T) {
	matched, err := Match("^sp-96-continuous-direct$")
	if err != nil || len(matched) != 1 {
		t.Fatalf("Match: %d scenarios, err %v", len(matched), err)
	}
	opts := Options{Warmup: 0, Reps: 1}
	a, err := Run(matched[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(matched[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy {
		t.Fatalf("energy not deterministic: %g vs %g", a.Energy, b.Energy)
	}
	if a.Tasks != b.Tasks || a.Edges != b.Edges {
		t.Fatalf("instance not deterministic: %d/%d vs %d/%d", a.Tasks, a.Edges, b.Tasks, b.Edges)
	}
}

// TestOptionsPrecedence pins the measurement-shape resolution order:
// explicit caller values beat a scenario's own, which beat the defaults.
func TestOptionsPrecedence(t *testing.T) {
	pinned := Scenario{Warmup: 2, Reps: 3}
	if got := (Options{}).reps(pinned); got != 3 {
		t.Fatalf("scenario reps ignored: %d", got)
	}
	if got := (Options{Reps: 7}).reps(pinned); got != 7 {
		t.Fatalf("explicit reps lost to the scenario's: %d", got)
	}
	if got := (Options{}).reps(Scenario{}); got != 5 {
		t.Fatalf("default reps = %d, want 5", got)
	}
	if got := (Options{}).warmup(pinned); got != 2 {
		t.Fatalf("scenario warmup ignored: %d", got)
	}
	if got := (Options{Warmup: 4}).warmup(pinned); got != 4 {
		t.Fatalf("explicit warmup lost to the scenario's: %d", got)
	}
	if got := (Options{}).warmup(Scenario{}); got != 1 {
		t.Fatalf("default warmup = %d, want 1", got)
	}
}

// TestMatchRejectsBadPattern covers the regexp error path.
func TestMatchRejectsBadPattern(t *testing.T) {
	if _, err := Match("("); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

// TestLargeRegistryCoverage pins the large-N tier: unique names (also
// against the default tier), every scenario marked TierLarge with
// trimmed repetitions, the sparse-kernel chain scenario present, and
// every instance buildable (building generates the graph and binds the
// path; it does not solve).
func TestLargeRegistryCoverage(t *testing.T) {
	names := make(map[string]bool)
	for _, s := range Registry() {
		names[s.Name] = true
	}
	large := RegistryLarge()
	if len(large) < 6 {
		t.Fatalf("large tier holds %d scenarios, want ≥ 6", len(large))
	}
	sawKernel := false
	for _, s := range large {
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q across tiers", s.Name)
		}
		names[s.Name] = true
		if s.Tier != TierLarge {
			t.Fatalf("scenario %s carries tier %q, want %q", s.Name, s.Tier, TierLarge)
		}
		if s.Reps == 0 || s.Warmup == 0 {
			t.Fatalf("scenario %s must trim repetitions explicitly", s.Name)
		}
		if s.ForceNumeric {
			sawKernel = true
		}
		r, err := s.build()
		if err != nil {
			t.Fatalf("scenario %s does not build: %v", s.Name, err)
		}
		r.close()
		if r.tasks < 128 {
			t.Fatalf("scenario %s built only %d tasks — too small for the large tier", s.Name, r.tasks)
		}
	}
	if !sawKernel {
		t.Fatal("large tier lacks a ForceNumeric kernel scenario")
	}
}

// TestSelectSlicesByTierAndFamily pins the -tier/-families selection
// semantics shared with Report.Subset.
func TestSelectSlicesByTierAndFamily(t *testing.T) {
	all, err := Select(".*", TierAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Registry()) + len(RegistryLarge()) + len(RegistryHuge()); len(all) != want {
		t.Fatalf("TierAll selected %d scenarios, want %d", len(all), want)
	}
	def, err := Select(".*", TierDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != len(Registry()) {
		t.Fatalf("TierDefault selected %d scenarios, want %d", len(def), len(Registry()))
	}
	large, err := Select(".*", TierLarge, []string{"chain"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range large {
		if s.Family != "chain" || s.Tier != TierLarge {
			t.Fatalf("family/tier filter leaked %s (%s, %s)", s.Name, s.Family, s.Tier)
		}
	}
	if len(large) == 0 {
		t.Fatal("family filter selected nothing")
	}
	if _, err := Select(".*", "weird", nil); err == nil {
		t.Fatal("unknown tier accepted")
	}
}

// TestForceNumericRequiresContinuousDirect covers the guard: kernel
// routing only makes sense on the direct path of the continuous model.
func TestForceNumericRequiresContinuousDirect(t *testing.T) {
	s := Scenario{Name: "bad", Family: "chain", N: 4, Seed: 1, Model: discModel, Path: PathDirect, ForceNumeric: true}
	if _, err := s.build(); err == nil {
		t.Fatal("ForceNumeric with a discrete model accepted")
	}
	s = Scenario{Name: "bad2", Family: "chain", N: 4, Seed: 1, Model: contModel, Path: PathPlanner, ForceNumeric: true}
	if _, err := s.build(); err == nil {
		t.Fatal("ForceNumeric on the planner path accepted")
	}
}

// TestRunRecordsMemoryMetrics: every fresh measurement carries the
// allocation metrics (solving allocates at setup even when the Newton
// loop itself is allocation-free).
func TestRunRecordsMemoryMetrics(t *testing.T) {
	matched, err := Match("^sp-96-continuous-direct$")
	if err != nil || len(matched) != 1 {
		t.Fatalf("Match: %d scenarios, err %v", len(matched), err)
	}
	res, err := Run(matched[0], Options{Warmup: 1, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocsPerOp == 0 || res.BytesPerOp == 0 {
		t.Fatalf("memory metrics missing: allocs %d, bytes %d", res.AllocsPerOp, res.BytesPerOp)
	}
}

// TestPercentileNearestRank pins the one percentile definition of
// energybench/v1: nearest rank, so every percentile is a measured sample
// and, over the default five repetitions, P50 is the median and P90 the
// slowest repetition.
func TestPercentileNearestRank(t *testing.T) {
	reps := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0.2, 1}, {0.21, 2}, {0.5, 3}, {0.9, 5}, {0.99, 5}, {1, 5},
	} {
		if got := Percentile(reps, c.q); got != c.want {
			t.Errorf("Percentile(%v, %g) = %g, want %g", reps, c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile of no samples = %g, want 0", got)
	}
}
