package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func TestTheorem5BoundFormula(t *testing.T) {
	m, _ := model.NewIncremental(1, 2, 0.5)
	// (1 + 0.5/1)² (1 + 1/2)² = 2.25 · 2.25 = 5.0625.
	if relDiff(Theorem5Bound(m, 2), 5.0625) > 1e-12 {
		t.Fatalf("Theorem5Bound = %v", Theorem5Bound(m, 2))
	}
	if relDiff(Proposition1ContinuousBound(m), 2.25) > 1e-12 {
		t.Fatalf("Prop1 continuous bound = %v", Proposition1ContinuousBound(m))
	}
	dm, _ := model.NewDiscrete([]float64{1, 1.5, 3})
	// α = 1.5, s₁ = 1, K = 3: (1+1.5)²·(4/3)² = 6.25·16/9.
	want := 6.25 * 16.0 / 9.0
	if relDiff(Proposition1DiscreteBound(dm, 3), want) > 1e-12 {
		t.Fatalf("Prop1 discrete bound = %v, want %v", Proposition1DiscreteBound(dm, 3), want)
	}
}

func TestIncrementalApproxFeasibleAndWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		eg := randomExecGraph(t, rng, 8+rng.Intn(6), 3)
		im, _ := model.NewIncremental(0.5, 2, 0.25)
		dmin, _ := eg.MinimalDeadline(2)
		D := dmin * (1.2 + rng.Float64()*2)
		p, _ := NewProblem(eg, D)
		K := 1 + rng.Intn(8)
		sol, err := p.SolveIncrementalApprox(im, K, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(sol, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every speed on the grid.
		speeds, _ := sol.Speeds()
		for i, s := range speeds {
			if !im.Admissible(s, 1e-9) {
				t.Fatalf("trial %d: task %d speed %v off the grid", trial, i, s)
			}
		}
		// The bound is proved against the speed-banded continuous optimum,
		// which lower-bounds the incremental optimum.
		cont, err := p.SolveContinuousNumeric(2, ContinuousOptions{SMin: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		bound := Theorem5Bound(im, K)
		if sol.Stats.BoundFactor != bound {
			t.Fatalf("reported bound %v, want %v", sol.Stats.BoundFactor, bound)
		}
		if sol.Energy > cont.Energy*bound*(1+1e-6) {
			t.Fatalf("trial %d (K=%d): approx %v > bound %v × cont %v",
				trial, K, sol.Energy, bound, cont.Energy)
		}
	}
}

func TestIncrementalApproxBeatsBoundTypically(t *testing.T) {
	// The measured ratio should typically be far below the worst-case bound;
	// with a fine grid and large K it should be within a few percent.
	rng := rand.New(rand.NewSource(2))
	eg := randomExecGraph(t, rng, 10, 2)
	im, _ := model.NewIncremental(0.5, 2, 0.05)
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := NewProblem(eg, dmin*2)
	sol, err := p.SolveIncrementalApprox(im, 64, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := p.SolveContinuousNumeric(2, ContinuousOptions{SMin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ratio := sol.Energy / cont.Energy
	if ratio > 1.25 {
		t.Fatalf("fine-grid ratio %v unexpectedly high", ratio)
	}
	if ratio < 1-1e-6 {
		t.Fatalf("approx %v beat the continuous bound %v", sol.Energy, cont.Energy)
	}
}

func TestIncrementalApproxMonotoneInK(t *testing.T) {
	// Larger K must not give a *worse a-priori bound*; the measured energy
	// usually (not provably) improves too, so only the bound is asserted.
	im, _ := model.NewIncremental(1, 2, 0.25)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4, 8, 16} {
		b := Theorem5Bound(im, k)
		if b > prev {
			t.Fatalf("bound increased with K: %v after %v", b, prev)
		}
		prev = b
	}
}

func TestIncrementalApproxRejectsBadArgs(t *testing.T) {
	p, _ := NewProblem(diamondGraph(), 100)
	im, _ := model.NewIncremental(0.5, 2, 0.25)
	if _, err := p.SolveIncrementalApprox(im, 0, ContinuousOptions{}); err == nil {
		t.Fatal("accepted K=0")
	}
	dm, _ := model.NewDiscrete([]float64{1, 2})
	if _, err := p.SolveIncrementalApprox(dm, 2, ContinuousOptions{}); err == nil {
		t.Fatal("accepted non-incremental model")
	}
	cm, _ := model.NewContinuous(2)
	if _, err := p.SolveDiscreteApprox(cm, 2, ContinuousOptions{}); err == nil {
		t.Fatal("discrete approx accepted continuous model")
	}
}

func TestDiscreteApproxWithinProp1Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	modes := []float64{0.5, 0.8, 1.5, 2} // irregular gaps, α = 0.7
	dm, _ := model.NewDiscrete(modes)
	for trial := 0; trial < 5; trial++ {
		eg := randomExecGraph(t, rng, 7+rng.Intn(5), 2)
		dmin, _ := eg.MinimalDeadline(2)
		p, _ := NewProblem(eg, dmin*(1.3+rng.Float64()))
		K := 1 + rng.Intn(6)
		sol, err := p.SolveDiscreteApprox(dm, K, ContinuousOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(sol, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cont, err := p.SolveContinuousNumeric(2, ContinuousOptions{SMin: modes[0]})
		if err != nil {
			t.Fatal(err)
		}
		bound := Proposition1DiscreteBound(dm, K)
		if sol.Energy > cont.Energy*bound*(1+1e-6) {
			t.Fatalf("trial %d: approx %v > bound %v × cont %v", trial, sol.Energy, bound, cont.Energy)
		}
		// Sanity vs the true discrete optimum when small enough.
		if eg.N() <= 10 {
			exact, err := p.SolveDiscreteBB(dm, DiscreteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Energy < exact.Energy*(1-1e-9) {
				t.Fatalf("approx %v beat the exact optimum %v", sol.Energy, exact.Energy)
			}
			if sol.Energy > exact.Energy*bound*(1+1e-6) {
				t.Fatalf("approx %v > bound %v × exact %v", sol.Energy, bound, exact.Energy)
			}
		}
	}
}

// Proposition 1 bullet 1: the *optimal* incremental energy is within
// (1+δ/smin)² of the continuous optimum. Verified with the exact BB solver.
func TestProp1ContinuousVsIncrementalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		eg := randomExecGraph(t, rng, 6, 2)
		im, _ := model.NewIncremental(0.5, 2, 0.3)
		dmin, _ := eg.MinimalDeadline(2)
		p, _ := NewProblem(eg, dmin*(1.2+rng.Float64()))
		contBanded, err := p.SolveContinuousNumeric(2, ContinuousOptions{SMin: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		incOpt, err := p.SolveDiscreteBB(im, DiscreteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bound := Proposition1ContinuousBound(im)
		if incOpt.Energy > contBanded.Energy*bound*(1+1e-6) {
			t.Fatalf("trial %d: incremental optimum %v > (1+δ/smin)² %v × continuous %v",
				trial, incOpt.Energy, bound, contBanded.Energy)
		}
		if incOpt.Energy < contBanded.Energy*(1-1e-6) {
			t.Fatalf("incremental optimum beat the continuous relaxation")
		}
	}
}

// As δ → 0 the incremental optimum converges to the continuous optimum —
// the "arbitrarily efficient" claim of the conclusion.
func TestIncrementalConvergesAsDeltaShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eg := randomExecGraph(t, rng, 6, 2)
	dmin, _ := eg.MinimalDeadline(2)
	p, _ := NewProblem(eg, dmin*1.8)
	cont, err := p.SolveContinuousNumeric(2, ContinuousOptions{SMin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	prevRatio := math.Inf(1)
	for _, delta := range []float64{0.8, 0.4, 0.2, 0.1} {
		im, _ := model.NewIncremental(0.5, 2, delta)
		sol, err := p.SolveDiscreteBB(im, DiscreteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ratio := sol.Energy / cont.Energy
		if ratio < 1-1e-9 {
			t.Fatalf("δ=%v: ratio %v below 1", delta, ratio)
		}
		if ratio > prevRatio*(1+1e-9) {
			t.Fatalf("δ=%v: ratio %v worse than coarser grid %v", delta, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio > 1.1 {
		t.Fatalf("δ=0.1 ratio still %v; expected near-continuous energy", prevRatio)
	}
}

// TestApproxReportsRelaxationNewton pins that the rounding approximations
// report the interior-point work of their continuous relaxation: on a
// general DAG the relaxation runs the kernel, so Stats.Newton is positive
// for incremental-approx (through the routing table) and discrete-approx.
func TestApproxReportsRelaxationNewton(t *testing.T) {
	g, err := workload.FromSeed("layered", 24, 3, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := g.MinimalDeadline(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, dmin*1.4)
	if err != nil {
		t.Fatal(err)
	}
	im, _ := model.NewIncremental(0.5, 2, 0.25)
	sol, err := p.SolveAuto(im, PlannedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Algorithm != "incremental-approx" || sol.Stats.Newton <= 0 {
		t.Fatalf("incremental solve reported %s with %d Newton iterations, want incremental-approx with > 0",
			sol.Stats.Algorithm, sol.Stats.Newton)
	}
	dm, _ := model.NewDiscrete([]float64{0.5, 1, 1.5, 2})
	dsol, err := p.SolveDiscreteApprox(dm, 4, ContinuousOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dsol.Stats.Newton <= 0 {
		t.Fatalf("discrete-approx reported %d Newton iterations, want > 0", dsol.Stats.Newton)
	}
}
