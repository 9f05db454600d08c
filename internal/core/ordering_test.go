package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/convex"
	"repro/internal/workload"
)

// Ordering-equivalence suite: nested dissection and RCM must produce the
// same speeds and energy to 1e-9 across workload families and solve
// variants — the ordering only permutes the Newton systems, never the
// optimum. Plus determinism: the kernel gives the same bits on any core
// count.

func TestOrderingEquivalenceAcrossFamilies(t *testing.T) {
	const smax = 2.0
	families := []struct {
		family string
		n      int
		seed   int64
	}{
		{"chain", 40, 21},
		{"fork", 24, 22},
		{"join", 24, 23},
		{"layered", 30, 24},
		{"gnp", 30, 25},
		{"tree", 30, 26},
		{"intree", 30, 27},
		{"sp", 30, 28},
		{"stencil", 5, 29},
		{"pipeline", 8, 30},
		{"mapreduce", 10, 31},
		{"multi", 3, 32},
	}
	variants := []string{"cold", "warm", "release"}
	for _, fc := range families {
		g, err := workload.FromSeed(fc.family, fc.n, fc.seed, 0.5, 3)
		if err != nil {
			t.Fatalf("%s: generate: %v", fc.family, err)
		}
		dmin, err := g.MinimalDeadline(smax)
		if err != nil {
			t.Fatalf("%s: minimal deadline: %v", fc.family, err)
		}
		p, err := NewProblem(g, dmin*1.5)
		if err != nil {
			t.Fatalf("%s: problem: %v", fc.family, err)
		}
		cold, err := p.SolveContinuousNumeric(smax, ContinuousOptions{})
		if err != nil {
			t.Fatalf("%s: cold solve: %v", fc.family, err)
		}
		for _, variant := range variants {
			opts := ContinuousOptions{}
			switch variant {
			case "warm":
				speeds, err := cold.Speeds()
				if err != nil {
					t.Fatalf("%s: speeds: %v", fc.family, err)
				}
				opts.Warm = &WarmStart{Speeds: speeds}
			case "release":
				release := make([]float64, p.G.N())
				for i := range release {
					release[i] = 0.02 * p.Deadline * float64(i%4) / 4
				}
				opts.Release = release
			}
			opts.Ordering = convex.OrderRCM
			rcm, err := p.SolveContinuousNumeric(smax, opts)
			if err != nil {
				t.Fatalf("%s/%s: RCM solve: %v", fc.family, variant, err)
			}
			opts.Ordering = convex.OrderND
			nd, err := p.SolveContinuousNumeric(smax, opts)
			if err != nil {
				t.Fatalf("%s/%s: ND solve: %v", fc.family, variant, err)
			}
			if rel := math.Abs(rcm.Energy-nd.Energy) / math.Max(1, rcm.Energy); rel > 1e-9 {
				t.Errorf("%s/%s: energy RCM %.15g ND %.15g (rel %g)",
					fc.family, variant, rcm.Energy, nd.Energy, rel)
			}
			sr, _ := rcm.Speeds()
			sn, _ := nd.Speeds()
			for i := range sr {
				if d := math.Abs(sr[i]-sn[i]) / math.Max(1, sr[i]); d > 1e-9 {
					t.Errorf("%s/%s: speed[%d] RCM %.15g ND %.15g", fc.family, variant, i, sr[i], sn[i])
				}
			}
		}
	}
}

// TestKernelDeterministicAcrossGOMAXPROCS pins that the interior point's
// answer does not depend on the core count: a 1,100-task layered DAG
// (2,200 variables, a size at which the kernel once switched to sharded
// loops and a parallel factorization) must give the same energy bits,
// speeds and iteration count at GOMAXPROCS 1, 2 and 4.
func TestKernelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const smax = 2.0
	g, err := workload.FromSeed("layered", 1100, 77, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := g.MinimalDeadline(smax)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, dmin*1.5)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Solution
	var refSpeeds []float64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		sol, err := p.SolveContinuousNumeric(smax, ContinuousOptions{})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		speeds, err := sol.Speeds()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refSpeeds = sol, speeds
			continue
		}
		if sol.Energy != ref.Energy || sol.Stats.Newton != ref.Stats.Newton {
			t.Fatalf("GOMAXPROCS %d: energy %.17g in %d iterations, GOMAXPROCS 1: %.17g in %d",
				procs, sol.Energy, sol.Stats.Newton, ref.Energy, ref.Stats.Newton)
		}
		for i := range speeds {
			if speeds[i] != refSpeeds[i] {
				t.Fatalf("GOMAXPROCS %d: speed[%d] %.17g, GOMAXPROCS 1: %.17g", procs, i, speeds[i], refSpeeds[i])
			}
		}
	}
}

func TestTransitiveRowDedupe(t *testing.T) {
	const smax = 2.0
	// A 10-task chain with every transitive edge added explicitly: 45
	// precedence rows, of which only the 9 chain edges matter. The solver
	// must drop the 36 implied rows and still match the chain closed form.
	n := 10
	gb, err := workload.FromSeed("chain", n, 5, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			gb.MustAddEdge(i, j)
		}
	}
	dmin, err := gb.MinimalDeadline(smax)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(gb, dmin*1.5)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.SolveContinuousNumeric(smax, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := n*(n-1)/2 - (n - 1); sol.Stats.PrecedenceRowsDropped != want {
		t.Fatalf("PrecedenceRowsDropped = %d, want %d", sol.Stats.PrecedenceRowsDropped, want)
	}
	// The closed form for the underlying chain is the oracle.
	chain, err := workload.FromSeed("chain", n, 5, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewProblem(chain, p.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cp.SolveChainContinuous(smax)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(sol.Energy-want.Energy) / math.Max(1, want.Energy); rel > 1e-7 {
		t.Fatalf("deduped energy %.15g vs chain closed form %.15g (rel %g)", sol.Energy, want.Energy, rel)
	}
	// The deduped program certifies itself.
	checkCertified(t, "deduped chain", p, sol, certTol)
}

func TestWarmStartCheaperThanCold(t *testing.T) {
	const smax = 2.0
	g, err := workload.FromSeed("layered", 128, 9, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := g.MinimalDeadline(smax)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, dmin*1.4)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.SolveContinuousNumeric(smax, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := cold.Speeds()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.SolveContinuousNumeric(smax, ContinuousOptions{Warm: &WarmStart{Speeds: speeds}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(warm.Energy-cold.Energy) / math.Max(1, cold.Energy); rel > 1e-9 {
		t.Fatalf("warm energy %.15g vs cold %.15g (rel %g)", warm.Energy, cold.Energy, rel)
	}
	// The point of AutoT0: a warm restart from the optimum must spend
	// strictly less centering work than the cold solve.
	if warm.Stats.Newton >= cold.Stats.Newton {
		t.Fatalf("warm restart took %d Newton iterations, cold took %d — warm start is not paying off",
			warm.Stats.Newton, cold.Stats.Newton)
	}
}
