package convex

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// TestOptionsRespected checks the options that steer the iteration: a
// loose Tol stops sooner than a tight one and still meets its own gap
// test (sᵀλ ≤ Tol/100), and an explicit T0 — a small starting gap at a
// start that is already optimal — saves iterations without moving the
// answer.
func TestOptionsRespected(t *testing.T) {
	f := &quadratic{q: linalg.Vector{1}, p: linalg.Vector{1}}
	a := rows(1, []float64{1}, []float64{-1})
	b := linalg.Vector{10, 10}
	solve := func(x0 float64, opts Options) *Result {
		t.Helper()
		res, err := SparseMinimize(f, a, b, linalg.Vector{x0}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.X[0]-1) > 1e-2 {
			t.Fatalf("%+v: x = %v, want 1", opts, res.X[0])
		}
		return res
	}
	loose, tight := solve(5, Options{Tol: 1e-3}), solve(5, Options{Tol: 1e-12})
	if loose.GapBound > 1e-3/pdTolScale || loose.Newton >= tight.Newton {
		t.Fatalf("Tol 1e-3: gap %g in %d iterations; Tol 1e-12: %d iterations", loose.GapBound, loose.Newton, tight.Newton)
	}
	cold, near := solve(1, Options{}), solve(1, Options{T0: 1e6})
	if near.Newton >= cold.Newton {
		t.Fatalf("T0 1e6 at the optimum took %d iterations, T0 1 took %d", near.Newton, cold.Newton)
	}
}

func TestBadlyScaledProblem(t *testing.T) {
	// Curvatures spanning 8 orders of magnitude, both optima interior to
	// a loose box: the LDLᵀ pivots span the same range.
	f := &quadratic{q: linalg.Vector{1e8, 1e0}, p: linalg.Vector{1e8, 1}}
	a := rows(2, []float64{1, 0}, []float64{-1, 0}, []float64{0, 1}, []float64{0, -1})
	res, err := SparseMinimize(f, a, linalg.Vector{20, 20, 20, 20}, linalg.Vector{17, -3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Fatalf("badly scaled optimum: %v", res.X)
	}
}

func TestTightBoxBoundary(t *testing.T) {
	// Optimum pressed against two constraints simultaneously.
	f := &quadratic{q: linalg.Vector{1, 1}, p: linalg.Vector{5, 5}}
	a := rows(2, []float64{1, 0}, []float64{0, 1})
	res, err := SparseMinimize(f, a, linalg.Vector{1, 1}, linalg.Vector{0.5, 0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Fatalf("corner optimum: %v", res.X)
	}
}
