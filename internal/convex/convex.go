// Package convex implements the interior-point method for smooth convex
// programs with linear inequality constraints:
//
//	minimize    f(x)
//	subject to  A·x ≤ b,
//
// where f is separable: it supplies its gradient and the diagonal of its
// Hessian. This is the "efficient numerical scheme" the paper appeals to
// for the continuous energy model on arbitrary execution graphs:
// MinEnergy(G, D) is a geometric program that, in the (completion-time,
// duration) variables, becomes exactly the shape above with
// f(d) = Σ wᵢ³/dᵢ².
//
// SparseProgram.Minimize (sparse.go) is a Mehrotra predictor-corrector
// primal-dual interior point over a program compiled once per constraint
// structure (CompileSparse), whose constraints arrive in CSR form, whose
// Newton matrix is assembled and factored in sparse form with a cached
// symbolic LDLᵀ, and whose iterations allocate nothing; SparseMinimize
// compiles and solves in one call. A solve runs sequentially on its
// caller's goroutine and gives the same bits on any core count;
// concurrent solves share one compiled program, each on its own pooled
// workspace. Its answers need no second solver as a check: it returns
// its final multipliers, and weak duality turns them into a lower bound
// on the optimum (see Result.Lambda).
package convex

import (
	"errors"

	"repro/internal/linalg"
)

// Ordering re-exports the fill-reducing ordering choice of the sparse
// kernel so callers above convex need not import linalg.
type Ordering = linalg.Ordering

// Re-exported ordering constants (see internal/linalg/order.go).
const (
	OrderAuto = linalg.OrderAuto
	OrderRCM  = linalg.OrderRCM
	OrderND   = linalg.OrderND
)

// Options tunes the interior point. Tol, T0 and AutoT0 steer the
// iteration; Ordering is fixed at CompileSparse.
type Options struct {
	// Tol is the duality-gap tolerance: the kernel stops once sᵀλ ≤ Tol/100
	// (or the mean sᵢλᵢ reaches its roundoff floor, which only systems
	// with tens of thousands of rows meet first) and
	// ‖∇f + Aᵀλ‖∞ ≤ (Tol/100)·(1 + ‖∇f‖∞) (or, with the gap closed, that
	// residual is below what rounding adds to it in one more step, which
	// degenerate programs meet first). Zero means 1e-9. A solve still
	// short of both tests after a fixed iteration cap fails with
	// ErrNumerical.
	Tol float64
	// T0 is the initial barrier weight: the kernel starts its multipliers
	// at λ = μ₀/s with μ₀ = 1/T0. Zero means 1.
	T0 float64
	// AutoT0 estimates the initial barrier weight from the least-squares
	// centrality of x0 — the t for which x0 best matches a central point,
	// t* = −⟨∇f,∇φ⟩/⟨∇f,∇f⟩ with φ = −Σ log(bᵢ − aᵢᵀx) — and starts at
	// μ₀ = min(1, 10/t*). Warm starts near the optimum then skip most of
	// the path; at a generic cold start the estimate is small and clamps
	// back to 1, leaving the path unchanged. An explicit nonzero T0 wins
	// over the estimate.
	AutoT0 bool
	// Ordering forces the fill-reducing ordering; OrderAuto (zero) picks
	// the cheaper of RCM and nested dissection by symbolic factor size.
	Ordering Ordering
}

// Result reports the outcome of SparseProgram.Minimize or SparseMinimize.
type Result struct {
	X     linalg.Vector
	Value float64
	// Newton counts the primal-dual iterations (one factorization each).
	Newton int
	// GapBound is the final complementarity sᵀλ.
	GapBound float64
	// Lambda holds the final multipliers λ > 0, one per constraint row.
	// By weak duality, for any λ ≥ 0 and any box B that holds the
	// feasible set, min over B of f(x) + λᵀ(A·x − b) bounds the optimum
	// from below.
	Lambda linalg.Vector
}

// Errors returned by the interior point.
var (
	ErrInfeasibleStart = errors.New("convex: starting point is not strictly feasible")
	ErrDimension       = errors.New("convex: dimension mismatch")
	ErrNumerical       = errors.New("convex: numerical failure in Newton step")
)

// clampT0 bounds the AutoT0 centrality estimate: non-finite or sub-unit
// estimates fall back to the classical start t = 1, and the upper clamp
// t ≤ 0.1·m/tol keeps the starting gap m·μ₀ = 10·m/t at least 100·tol, so
// the kernel still closes the gap by iterating rather than starting
// below its stopping test.
func clampT0(t float64, m int, tol float64) float64 {
	if !(t > 1) { // catches NaN, ±Inf from a zero gradient, and t ≤ 1
		return 1
	}
	if hi := 0.1 * float64(m) / tol; t > hi {
		return hi
	}
	return t
}
