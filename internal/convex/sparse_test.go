package convex

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// sepPowerSum is Σ wᵢ³/xᵢ², the energy objective shape.
type sepPowerSum struct {
	w linalg.Vector
}

func (f *sepPowerSum) Value(x linalg.Vector) float64 {
	v := 0.0
	for i, w := range f.w {
		v += w * w * w / (x[i] * x[i])
	}
	return v
}

func (f *sepPowerSum) Gradient(x, g linalg.Vector) {
	for i, w := range f.w {
		g[i] = -2 * w * w * w / (x[i] * x[i] * x[i])
	}
}

func (f *sepPowerSum) HessianDiag(x, h linalg.Vector) {
	for i, w := range f.w {
		h[i] = 6 * w * w * w / (x[i] * x[i] * x[i] * x[i])
	}
}

// randomChainProgram builds a feasible random "schedule-shaped" program:
// n durations on a chain, Σ xᵢ ≤ D and lo ≤ xᵢ. Returns the program, its
// closed-form optimum, and a strictly feasible start: every task at the
// chain's one speed Σw/D, xᵢ = wᵢ·D/Σw, which lo never binds.
func randomChainProgram(rng *rand.Rand, n int) (*sepPowerSum, linalg.Vector, *linalg.CSR, linalg.Vector, linalg.Vector) {
	w := linalg.NewVector(n)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	D := 2.0 * float64(n)
	lo := 0.05
	b := linalg.NewVector(1 + n)
	cb := linalg.NewCSRBuilder(n)
	for j := 0; j < n; j++ { // Σ x ≤ D
		cb.Set(j, 1)
	}
	cb.EndRow()
	b[0] = D
	for i := 0; i < n; i++ { // -xᵢ ≤ -lo
		cb.Set(i, -1)
		cb.EndRow()
		b[1+i] = -lo
	}
	x0 := linalg.NewVector(n)
	for i := range x0 {
		x0[i] = D / float64(n) * (0.5 + 0.4*rng.Float64())
	}
	opt := linalg.NewVector(n)
	for i := range opt {
		opt[i] = w[i] * D / w.Sum()
	}
	return &sepPowerSum{w: w}, opt, cb.Build(), b, x0
}

func TestSparseMinimizeMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(20)
		f, opt, a, b, x0 := randomChainProgram(rng, n)
		res, err := SparseMinimize(f, a, b, x0, Options{})
		if err != nil {
			t.Fatalf("trial %d: SparseMinimize: %v", trial, err)
		}
		if want := f.Value(opt); math.Abs(res.Value-want) > 1e-9*want {
			t.Fatalf("trial %d: value %.15g, closed form %.15g", trial, res.Value, want)
		}
		for i := range opt {
			if math.Abs(res.X[i]-opt[i]) > 1e-7*(1+opt[i]) {
				t.Fatalf("trial %d: x[%d] %.15g, closed form %.15g", trial, i, res.X[i], opt[i])
			}
		}
	}
}

func TestSparseMinimizeUnconstrained(t *testing.T) {
	// Quadratic-like separable objective with no constraints: plain Newton.
	f := &sepPowerSum{w: linalg.Vector{1, 2}}
	// Unconstrained Σ w³/x² has no finite minimizer; bound it with a tiny
	// box instead to keep the test meaningful — single lower-bound rows.
	cb := linalg.NewCSRBuilder(2)
	cb.Set(0, -1)
	cb.EndRow()
	cb.Set(1, -1)
	cb.EndRow()
	cb.Set(0, 1)
	cb.EndRow()
	cb.Set(1, 1)
	cb.EndRow()
	b := linalg.Vector{-0.5, -0.5, 4, 4}
	res, err := SparseMinimize(f, cb.Build(), b, linalg.Vector{1, 1}, Options{})
	if err != nil {
		t.Fatalf("SparseMinimize: %v", err)
	}
	// Objective decreases in x: optimum pushes to the upper bound 4.
	for i, x := range res.X {
		if math.Abs(x-4) > 1e-3 {
			t.Fatalf("x[%d] = %g, want ≈ 4", i, x)
		}
	}
}

func TestSparseMinimizeInfeasibleStart(t *testing.T) {
	f := &sepPowerSum{w: linalg.Vector{1}}
	cb := linalg.NewCSRBuilder(1)
	cb.Set(0, 1)
	cb.EndRow()
	if _, err := SparseMinimize(f, cb.Build(), linalg.Vector{1}, linalg.Vector{2}, Options{}); err == nil {
		t.Fatal("expected ErrInfeasibleStart")
	}
}

func TestSparseMinimizeDimensionMismatch(t *testing.T) {
	f := &sepPowerSum{w: linalg.Vector{1}}
	cb := linalg.NewCSRBuilder(2)
	cb.Set(0, 1)
	cb.EndRow()
	if _, err := SparseMinimize(f, cb.Build(), linalg.Vector{1}, linalg.Vector{0.5}, Options{}); err != ErrDimension {
		t.Fatalf("expected ErrDimension, got %v", err)
	}
}

func TestSparseMinimizeRejectsNoConstraints(t *testing.T) {
	f := &sepPowerSum{w: linalg.Vector{1}}
	if _, err := SparseMinimize(f, nil, nil, linalg.Vector{1}, Options{}); err != ErrDimension {
		t.Fatalf("nil A: expected ErrDimension, got %v", err)
	}
	if _, err := SparseMinimize(f, linalg.NewCSRBuilder(1).Build(), nil, linalg.Vector{1}, Options{}); err != ErrDimension {
		t.Fatalf("zero-row A: expected ErrDimension, got %v", err)
	}
}

// TestNewtonInnerLoopZeroAllocs pins the sparse primal-dual iteration —
// residuals, assembly, factorization, predictor and corrector solves, and
// the step-back — at zero heap allocations. This is the regression test
// the perf work rests on: any accidental per-iteration allocation fails
// here before it shows up in a benchmark.
func TestNewtonInnerLoopZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 24
	f, _, sa, b, x0 := randomChainProgram(rng, n)
	s := CompileSparse(sa, n, Options{}).newWorkspace()
	s.f, s.b = f, b
	x := x0.Clone()
	// Warm the path: one full minimize pass compiles nothing new (setup
	// happened in CompileSparse/newWorkspace).
	if _, err := s.minimize(x0, Options{}); err != nil {
		t.Fatalf("minimize: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		copy(x, x0)
		if err := s.start(x, Options{}, 1e-9); err != nil {
			t.Fatalf("start: %v", err)
		}
		for k := 0; k < 5; k++ {
			if _, err := s.iterate(x, 1e-11); err != nil {
				t.Fatalf("iterate: %v", err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("primal-dual iteration allocated %v times per run, want 0", allocs)
	}
}
