package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/workload"
)

// The sparse kernel's certificate suite. Every interior-point answer must
// pass Verify and certify itself: its lower bound (Stats.LowerBound, the
// Lagrangian dual at the kernel's final multipliers) may not exceed the
// energy beyond rounding, and may trail it by at most certTol, across
// every workload family and all four solve-option variants — cold,
// warm-started, release-times, and SMin-banded. By weak duality that is a
// proof of optimality that needs no second solver. Where the routing table
// has a closed form (chains and forks by Theorem 1, trees and SP graphs
// by Theorem 2) the answer must also match it, speeds included.

// maxSparseIterations bounds the primal-dual iterations of every sparse
// solve in this suite: the work counter the kernel's speed rests on,
// pinned here instead of a wall-clock bound.
const maxSparseIterations = 60

// certTol is the relative gap E − LB ≤ certTol·E the core suites require.
const certTol = 1e-11

// checkCertified fails unless sol passes Verify and certifies itself to
// within tol (checkGap).
func checkCertified(t *testing.T, name string, p *Problem, sol *Solution, tol float64) {
	t.Helper()
	if err := p.Verify(sol, 1e-9); err != nil {
		t.Errorf("%s: verify: %v", name, err)
	}
	checkGap(t, name, sol.Energy, sol.Stats, tol)
}

// checkGap fails unless the answer carries a certificate LB with
// 0 < LB ≤ E·(1+1e-12) and E − LB ≤ tol·E.
func checkGap(t *testing.T, name string, energy float64, st Stats, tol float64) {
	t.Helper()
	lb := st.LowerBound
	if !(lb > 0) || lb > energy*(1+1e-12) || energy-lb > tol*energy {
		t.Errorf("%s: energy %.15g, lower bound %.15g (gap %.3g, want ≤ %g)",
			name, energy, lb, (energy-lb)/energy, tol)
	}
}

// checkClosedForm compares sol with the routing table's closed form for
// p, speeds included, when p has one that smax does not bind.
func checkClosedForm(t *testing.T, name string, p *Problem, smax float64, sol *Solution) {
	t.Helper()
	ref, err := p.SolveContinuous(smax, ContinuousOptions{})
	if err != nil {
		t.Fatalf("%s: routed solve: %v", name, err)
	}
	switch ref.Stats.Algorithm {
	case "chain-closed-form", "fork-closed-form", "tree-equivalent-weight", "sp-equivalent-weight":
	default:
		return
	}
	if rel := math.Abs(sol.Energy-ref.Energy) / ref.Energy; rel > 1e-9 {
		t.Errorf("%s: energy %.15g, %s %.15g (rel %g)", name, sol.Energy, ref.Stats.Algorithm, ref.Energy, rel)
	}
	got, err := sol.Speeds()
	if err != nil {
		t.Fatalf("%s: speeds: %v", name, err)
	}
	want, err := ref.Speeds()
	if err != nil {
		t.Fatalf("%s: %s speeds: %v", name, ref.Stats.Algorithm, err)
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-9*(1+want[i]) {
			t.Errorf("%s: speed[%d] %.15g, %s %.15g", name, i, got[i], ref.Stats.Algorithm, want[i])
			break
		}
	}
}

// solveVariant is one ContinuousOptions shape of the matrix.
type solveVariant struct {
	name  string
	setup func(p *Problem, cold *Solution) (ContinuousOptions, bool)
}

func solveVariants() []solveVariant {
	return []solveVariant{
		{"cold", func(p *Problem, cold *Solution) (ContinuousOptions, bool) {
			return ContinuousOptions{}, true
		}},
		{"warm", func(p *Problem, cold *Solution) (ContinuousOptions, bool) {
			if cold == nil {
				return ContinuousOptions{}, false
			}
			speeds, err := cold.Speeds()
			if err != nil {
				return ContinuousOptions{}, false
			}
			return ContinuousOptions{Warm: &WarmStart{Speeds: speeds}}, true
		}},
		{"release", func(p *Problem, cold *Solution) (ContinuousOptions, bool) {
			release := make([]float64, p.G.N())
			for i := range release {
				// Stagger a mild release ramp; sources feel it, the rest
				// absorb it through the precedence rows.
				release[i] = 0.02 * p.Deadline * float64(i%4) / 4
			}
			return ContinuousOptions{Release: release}, true
		}},
		{"smin", func(p *Problem, cold *Solution) (ContinuousOptions, bool) {
			return ContinuousOptions{SMin: 0.3}, true
		}},
	}
}

// solveCertified runs every variant on p and checks each answer: the
// iteration pin, the certificate, and — for the cold and warm variants,
// which solve p itself — the closed form.
func solveCertified(t *testing.T, name string, p *Problem, smax float64) {
	t.Helper()
	cold, err := p.SolveContinuousNumeric(smax, ContinuousOptions{})
	if err != nil {
		t.Fatalf("%s: cold solve: %v", name, err)
	}
	for _, v := range solveVariants() {
		opts, ok := v.setup(p, cold)
		if !ok {
			continue
		}
		vname := name + "/" + v.name
		sol, err := p.SolveContinuousNumeric(smax, opts)
		if err != nil {
			t.Fatalf("%s: %v", vname, err)
		}
		if sol.Stats.Newton > maxSparseIterations {
			t.Errorf("%s: sparse solve took %d iterations, want ≤ %d", vname, sol.Stats.Newton, maxSparseIterations)
		}
		checkCertified(t, vname, p, sol, certTol)
		if opts.Release == nil && opts.SMin == 0 {
			checkClosedForm(t, vname, p, smax, sol)
		}
	}
}

func TestSparseKernelCertifiedAcrossFamilies(t *testing.T) {
	const smax = 2.0
	families := []struct {
		family string
		n      int
		seed   int64
	}{
		{"chain", 14, 1},
		{"fork", 8, 2},
		{"join", 8, 3},
		{"forkjoin", 4, 4},
		{"layered", 14, 5},
		{"gnp", 14, 6},
		{"tree", 12, 7},
		{"intree", 12, 8},
		{"sp", 14, 9},
		{"lu", 3, 10},
		{"stencil", 4, 11},
		{"fft", 3, 12},
		{"pipeline", 4, 13},
		{"mapreduce", 6, 14},
		{"multi", 2, 15},
	}
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
		solveCertified(t, fc.family, p, smax)
	}
}

// TestSparseKernelCertifiedAtTightDeadline runs the sparse kernel where
// most speed caps bind — 1.02× the minimal deadline — on three general
// DAGs × the four variants.
func TestSparseKernelCertifiedAtTightDeadline(t *testing.T) {
	const smax = 2.0
	for _, fc := range []struct {
		family string
		n      int
		seed   int64
	}{
		{"layered", 36, 31},
		{"gnp", 40, 32},
		{"lu", 5, 33},
	} {
		g, err := workload.FromSeed(fc.family, fc.n, fc.seed, 0.5, 3)
		if err != nil {
			t.Fatalf("%s: generate: %v", fc.family, err)
		}
		dmin, err := g.MinimalDeadline(smax)
		if err != nil {
			t.Fatalf("%s: minimal deadline: %v", fc.family, err)
		}
		p, err := NewProblem(g, dmin*1.02)
		if err != nil {
			t.Fatalf("%s: problem: %v", fc.family, err)
		}
		solveCertified(t, fc.family, p, smax)
	}
}

// TestSparseKernelCertifiedAlpha certifies the generalized program under
// power s^α, whose answers carry no schedule to Verify.
func TestSparseKernelCertifiedAlpha(t *testing.T) {
	g, err := workload.FromSeed("layered", 12, 21, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := g.MinimalDeadline(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, dmin*1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{1.6, 2.2, 3} {
		sol, err := p.SolveContinuousNumericAlpha(2, alpha, ContinuousOptions{})
		if err != nil {
			t.Fatalf("alpha %g: %v", alpha, err)
		}
		checkGap(t, fmt.Sprintf("alpha %g", alpha), sol.Energy, sol.Stats, certTol)
	}
}

// TestSparseKernelLargeChain pins the asymptotic win: a 2048-task chain
// through the interior-point kernel (bypassing the closed form) solves in
// seconds on the sparse path — its KKT systems are tridiagonal-like and
// factor with zero fill — where a dense O(n³) factorization per Newton
// step would be computationally out of reach. The wall-clock bound is
// deliberately loose (CI machines vary); the committed BENCH_baseline.json
// records the measured number.
func TestSparseKernelLargeChain(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N kernel test skipped in -short")
	}
	const n = 2048
	g, err := workload.FromSeed("chain", n, 99, 0.5, 3)
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
	start := time.Now()
	sol, err := p.SolveContinuousNumeric(2, ContinuousOptions{})
	if err != nil {
		t.Fatalf("sparse solve of %d-task chain: %v", n, err)
	}
	elapsed := time.Since(start)
	t.Logf("%d-task chain: %.3fs, %d Newton iterations, energy %.6g",
		n, elapsed.Seconds(), sol.Stats.Newton, sol.Energy)
	if elapsed > 15*time.Second {
		t.Fatalf("sparse kernel took %.1fs on a %d-task chain; want seconds, not minutes", elapsed.Seconds(), n)
	}
	// The chain closed form is the exact optimum: the kernel must agree.
	closed, err := p.SolveChainContinuous(2)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(sol.Energy-closed.Energy) / closed.Energy; rel > 1e-6 {
		t.Fatalf("kernel energy %.9g vs closed form %.9g (rel %g)", sol.Energy, closed.Energy, rel)
	}
}
