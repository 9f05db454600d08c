package benchkit

import "testing"

// TestHugeRegistryCoverage pins the out-of-core tier: unique names
// against the other tiers, every scenario marked TierHuge with trimmed
// repetitions, at least one instance past a quarter-million tasks, a
// mapped chain, a mapped multi-component instance, and an in-memory
// ceiling scenario — and every one buildable (build writes and maps the
// instance file; it does not solve).
func TestHugeRegistryCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds million-task instance files")
	}
	names := make(map[string]bool)
	for _, s := range append(Registry(), RegistryLarge()...) {
		names[s.Name] = true
	}
	huge := RegistryHuge()
	if len(huge) < 4 {
		t.Fatalf("huge tier holds %d scenarios, want ≥ 4", len(huge))
	}
	var maxTasks int
	sawMmapChain, sawMmapMulti, sawInMemory := false, false, false
	for _, s := range huge {
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q across tiers", s.Name)
		}
		names[s.Name] = true
		if s.Tier != TierHuge {
			t.Fatalf("scenario %s carries tier %q, want %q", s.Name, s.Tier, TierHuge)
		}
		if s.Reps == 0 || s.Warmup == 0 {
			t.Fatalf("scenario %s must trim repetitions explicitly", s.Name)
		}
		switch {
		case s.Mmap && s.Family == "chain":
			sawMmapChain = true
		case s.Mmap:
			sawMmapMulti = true
		default:
			sawInMemory = true
		}
		r, err := s.build()
		if err != nil {
			t.Fatalf("scenario %s does not build: %v", s.Name, err)
		}
		if r.tasks > maxTasks {
			maxTasks = r.tasks
		}
		r.close()
	}
	if maxTasks < 262144 {
		t.Fatalf("largest huge-tier instance is %d tasks, want ≥ 262144", maxTasks)
	}
	if !sawMmapChain || !sawMmapMulti || !sawInMemory {
		t.Fatalf("huge tier misses a shape: mmap chain %v, mmap multi %v, in-memory %v",
			sawMmapChain, sawMmapMulti, sawInMemory)
	}
}

// TestMmapScenarioRuns measures the smallest mapped scenario end-to-end
// and checks the out-of-core contract shows up in the record: energy
// produced, and the per-rep allocation volume far below the instance's
// in-memory footprint (~40 bytes/task just for the Graph arrays).
func TestMmapScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 262144-task instance")
	}
	matched, err := Select("^chain-262144-continuous-mmap$", TierHuge, nil)
	if err != nil || len(matched) != 1 {
		t.Fatalf("Select: %d scenarios, err %v", len(matched), err)
	}
	res, err := Run(matched[0], Options{Warmup: 1, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 {
		t.Fatalf("non-positive energy %g", res.Energy)
	}
	if res.Tasks != 262144 {
		t.Fatalf("instance has %d tasks, want 262144", res.Tasks)
	}
	if perTask := float64(res.BytesPerOp) / float64(res.Tasks); perTask > 40 {
		t.Fatalf("mapped solve allocates %.1f bytes/task — not out-of-core (%d bytes/op)",
			perTask, res.BytesPerOp)
	}
}

// TestMmapRequiresContinuousDirect covers the guard on the out-of-core
// path.
func TestMmapRequiresContinuousDirect(t *testing.T) {
	s := Scenario{Name: "bad", Family: "chain", N: 4, Seed: 1, Model: discModel, Path: PathDirect, Mmap: true}
	if _, err := s.build(); err == nil {
		t.Fatal("Mmap with a discrete model accepted")
	}
	s = Scenario{Name: "bad2", Family: "chain", N: 4, Seed: 1, Model: contModel, Path: PathPlanner, Mmap: true}
	if _, err := s.build(); err == nil {
		t.Fatal("Mmap on the planner path accepted")
	}
}
