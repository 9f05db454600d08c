// Package convex implements interior-point methods for smooth convex
// programs with linear inequality constraints:
//
//	minimize    f(x)
//	subject to  A·x ≤ b,
//
// where f supplies its gradient and Hessian. This is the "efficient
// numerical scheme" the paper appeals to for the continuous energy model on
// arbitrary execution graphs: MinEnergy(G, D) is a geometric program that,
// in the (completion-time, duration) variables, becomes exactly the shape
// above with f(d) = Σ wᵢ³/dᵢ².
//
// Two code paths solve the same program. SparseProgram.Minimize
// (sparse.go) is the production kernel: a Mehrotra predictor-corrector
// primal-dual interior point over a program compiled once per constraint
// structure (CompileSparse), whose constraints arrive in CSR form, whose
// Newton matrix is assembled and factored in sparse form with a cached
// symbolic LDLᵀ, and whose iterations allocate nothing; SparseMinimize
// compiles and solves in one call. Minimize below is the dense
// log-barrier method, kept as the reference oracle the property suite
// checks the sparse path against.
package convex

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Objective is a twice-differentiable convex function.
type Objective interface {
	// Value returns f(x).
	Value(x linalg.Vector) float64
	// Gradient writes ∇f(x) into g.
	Gradient(x, g linalg.Vector)
	// Hessian adds ∇²f(x) into h (h is pre-zeroed by the solver).
	Hessian(x linalg.Vector, h *linalg.Matrix)
}

// Ordering re-exports the fill-reducing ordering choice of the sparse
// kernel so callers above convex need not import linalg.
type Ordering = linalg.Ordering

// Re-exported ordering constants (see internal/linalg/order.go).
const (
	OrderAuto = linalg.OrderAuto
	OrderRCM  = linalg.OrderRCM
	OrderND   = linalg.OrderND
)

// Options tunes both interior-point methods. Tol, T0 and AutoT0 steer
// both; Mu, MaxOuter and MaxNewton tune the dense barrier oracle only;
// Workers and Ordering tune the sparse kernel only.
type Options struct {
	// Tol is the duality-gap tolerance. The dense barrier stops once its
	// gap m/t falls below Tol; the sparse kernel stops once sᵀλ ≤ Tol/100
	// (or the mean sᵢλᵢ reaches its roundoff floor, which only systems
	// with tens of thousands of rows meet first) and
	// ‖∇f + Aᵀλ‖∞ ≤ (Tol/100)·(1 + ‖∇f‖∞) (or, with the gap closed, that
	// residual is below what rounding adds to it in one more step, which
	// degenerate programs meet first). Zero means 1e-9.
	Tol float64
	// MaxNewton bounds the dense barrier's Newton iterations per
	// centering step. Zero means 60. The sparse kernel caps its
	// primal-dual iterations with a fixed constant instead and fails with
	// ErrNumerical when it runs out.
	MaxNewton int
	// MaxOuter bounds the dense barrier's centering stages. Zero means 80.
	MaxOuter int
	// Mu is the dense barrier's growth factor. Zero means 12.
	Mu float64
	// T0 is the initial barrier weight. Zero means 1. The sparse kernel
	// starts its multipliers at λ = μ₀/s with μ₀ = 1/T0.
	T0 float64
	// AutoT0 estimates the initial barrier weight from the least-squares
	// centrality of x0 — the t for which x0 best matches a central point,
	// t* = −⟨∇f,∇φ⟩/⟨∇f,∇f⟩ — instead of starting at 1. Warm starts
	// near the optimum then skip most of the path; at a generic cold
	// start the estimate is small and clamps back to 1, leaving the path
	// unchanged. The sparse kernel starts at μ₀ = min(1, 10/t*). An
	// explicit nonzero T0 wins over the estimate.
	AutoT0 bool
	// Workers caps the parallelism of the sparse kernel (factorization,
	// Hessian assembly and mat-vec loops). 0 selects automatically:
	// GOMAXPROCS capped at 8, and only for systems with at least
	// sparseParallelMinVars variables — smaller systems stay on the exact
	// sequential path. 1 or negative forces sequential. The dense path
	// ignores it.
	Workers int
	// Ordering forces the sparse kernel's fill-reducing ordering;
	// OrderAuto (zero) picks the cheaper of RCM and nested dissection by
	// symbolic factor size. The dense path ignores it.
	Ordering Ordering
}

// Result reports the outcome of Minimize or SparseMinimize.
type Result struct {
	X     linalg.Vector
	Value float64
	// Newton counts Newton iterations: all centering steps of the dense
	// barrier, or the primal-dual iterations of the sparse kernel (one
	// factorization each).
	Newton int
	// OuterStages counts the dense barrier's centering stages; the
	// sparse kernel has none and leaves it zero.
	OuterStages int
	// GapBound bounds the suboptimality of X: the final m/t of the dense
	// barrier, or the final complementarity sᵀλ of the sparse kernel.
	GapBound float64
}

// Errors returned by Minimize.
var (
	ErrInfeasibleStart = errors.New("convex: starting point is not strictly feasible")
	ErrDimension       = errors.New("convex: dimension mismatch")
	ErrNumerical       = errors.New("convex: numerical failure in Newton step")
)

// Minimize runs a standard path-following barrier method from the strictly
// feasible point x0. a may be nil (unconstrained Newton).
func Minimize(f Objective, a *linalg.Matrix, b linalg.Vector, x0 linalg.Vector, opts Options) (*Result, error) {
	n := len(x0)
	var m int
	if a != nil {
		if a.Cols != n || len(b) != a.Rows {
			return nil, ErrDimension
		}
		m = a.Rows
	}
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-9
	}
	maxNewton := opts.MaxNewton
	if maxNewton == 0 {
		maxNewton = 60
	}
	maxOuter := opts.MaxOuter
	if maxOuter == 0 {
		maxOuter = 80
	}
	mu := opts.Mu
	if mu == 0 {
		mu = 12
	}
	t := opts.T0
	if t == 0 {
		t = 1
	}

	x := x0.Clone()
	slack := linalg.NewVector(m)
	if m > 0 {
		computeSlack(a, b, x, slack)
		if slack.Min() <= 0 {
			return nil, fmt.Errorf("%w (min slack %g)", ErrInfeasibleStart, slack.Min())
		}
	}

	res := &Result{}
	grad := linalg.NewVector(n)
	hess := linalg.NewMatrix(n, n)
	dir := linalg.NewVector(n)
	ws := &denseWorkspace{
		neg:   linalg.NewVector(n),
		trial: linalg.NewVector(n),
		adir:  linalg.NewVector(m),
		ts:    linalg.NewVector(m),
	}

	if opts.AutoT0 && opts.T0 == 0 && m > 0 {
		// grad ← ∇f(x0), dir ← ∇φ(x0) = Σ aᵢ/sᵢ (both still scratch here).
		f.Gradient(x, grad)
		for i := 0; i < m; i++ {
			row := a.Row(i)
			inv := 1 / slack[i]
			for j := 0; j < n; j++ {
				dir[j] += row[j] * inv
			}
		}
		num, den := 0.0, 0.0
		for j := 0; j < n; j++ {
			num -= grad[j] * dir[j]
			den += grad[j] * grad[j]
		}
		t = clampT0(num/den, m, tol)
		for j := range dir {
			dir[j] = 0
		}
	}

	for outer := 0; outer < maxOuter; outer++ {
		res.OuterStages++
		// Centering: Newton on  t·f(x) + φ(x),  φ = -Σ log(bᵢ - aᵢᵀx).
		for it := 0; it < maxNewton; it++ {
			res.Newton++
			val, gnorm, err := newtonStep(f, a, b, x, t, grad, hess, dir, slack, ws)
			if err != nil {
				return nil, err
			}
			_ = val
			// Newton decrement-based stop.
			lambda2 := -grad.Dot(dir) // dir solves H·dir = -g, so -gᵀdir = gᵀH⁻¹g ≥ 0
			if lambda2 < 0 {
				lambda2 = 0
			}
			if lambda2/2 < 1e-12 || gnorm < 1e-13 {
				break
			}
			if !lineSearchAndStep(f, a, b, x, dir, t, grad, slack, ws) {
				break // no progress possible at this scale
			}
		}
		gap := float64(m) / t
		res.GapBound = gap
		if m == 0 || gap < tol {
			break
		}
		t *= mu
	}
	res.X = x
	res.Value = f.Value(x)
	return res, nil
}

// clampT0 bounds the AutoT0 centrality estimate: non-finite or sub-unit
// estimates fall back to the classical start t=1, and the upper clamp
// keeps at least a few outer stages so the final gap certificate m/t is
// still driven below tol by centering rather than assumed.
func clampT0(t float64, m int, tol float64) float64 {
	if !(t > 1) { // catches NaN, ±Inf from a zero gradient, and t ≤ 1
		return 1
	}
	if hi := 0.1 * float64(m) / tol; t > hi {
		return hi
	}
	return t
}

func computeSlack(a *linalg.Matrix, b, x, slack linalg.Vector) {
	a.MulVec(x, slack)
	for i := range slack {
		slack[i] = b[i] - slack[i]
	}
}

// denseWorkspace holds the vectors the dense Newton loop reuses across
// iterations and line-search backtracks, so neither allocates per trial.
type denseWorkspace struct {
	neg   linalg.Vector // negated gradient (Newton right-hand side)
	trial linalg.Vector // candidate point of the line search
	adir  linalg.Vector // A·dir
	ts    linalg.Vector // trial slack inside barrierVal
}

// newtonStep assembles gradient/Hessian of t·f + φ at x and solves for the
// Newton direction into dir. Returns the barrier-augmented value and the
// gradient norm.
func newtonStep(f Objective, a *linalg.Matrix, b linalg.Vector, x linalg.Vector,
	t float64, grad linalg.Vector, hess *linalg.Matrix, dir linalg.Vector, slack linalg.Vector,
	ws *denseWorkspace) (float64, float64, error) {

	n := len(x)
	// Gradient: t·∇f + Σ aᵢ/sᵢ.
	f.Gradient(x, grad)
	grad.Scale(t)
	hess.Zero()
	f.Hessian(x, hess)
	for i := range hess.Data {
		hess.Data[i] *= t
	}
	if a != nil {
		computeSlack(a, b, x, slack)
		for i := 0; i < a.Rows; i++ {
			si := slack[i]
			if si <= 0 {
				return 0, 0, fmt.Errorf("%w: slack %d non-positive during centering", ErrNumerical, i)
			}
			row := a.Row(i)
			inv := 1 / si
			for j := 0; j < n; j++ {
				grad[j] += row[j] * inv
			}
			hess.AddOuterScaled(inv*inv, row)
		}
	}
	for j := range grad {
		ws.neg[j] = -grad[j]
	}
	fac, _, err := linalg.FactorPD(hess)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrNumerical, err)
	}
	fac.SolveInto(ws.neg, dir)
	val := t * f.Value(x)
	if a != nil {
		for i := range slack {
			val -= math.Log(slack[i])
		}
	}
	return val, grad.Norm2(), nil
}

// lineSearchAndStep performs a backtracking line search on t·f + φ along dir,
// first shrinking the step to stay strictly inside the constraints, then
// enforcing an Armijo decrease. x is updated in place; every trial reuses
// the workspace vectors, so backtracking allocates nothing. Returns false
// when no step could be taken.
func lineSearchAndStep(f Objective, a *linalg.Matrix, b linalg.Vector, x, dir linalg.Vector,
	t float64, grad, slack linalg.Vector, ws *denseWorkspace) bool {

	const (
		alpha = 0.25
		beta  = 0.5
	)
	step := 1.0
	// Shrink to remain strictly feasible: need slack - step·(A·dir) > 0.
	if a != nil {
		a.MulVec(dir, ws.adir)
		computeSlack(a, b, x, slack)
		for i := range ws.adir {
			if ws.adir[i] > 0 {
				limit := slack[i] / ws.adir[i]
				if 0.99*limit < step {
					step = 0.99 * limit
				}
			}
		}
	}
	if step <= 0 || math.IsNaN(step) {
		return false
	}
	v0 := denseBarrierVal(f, a, b, x, t, ws.ts)
	slope := grad.Dot(dir) // should be negative
	for k := 0; k < 60; k++ {
		copy(ws.trial, x)
		ws.trial.AddScaled(step, dir)
		v := denseBarrierVal(f, a, b, ws.trial, t, ws.ts)
		if v <= v0+alpha*step*slope && !math.IsNaN(v) {
			copy(x, ws.trial)
			return true
		}
		step *= beta
	}
	return false
}

// denseBarrierVal evaluates t·f + φ at y using the given slack workspace.
func denseBarrierVal(f Objective, a *linalg.Matrix, b linalg.Vector, y linalg.Vector,
	t float64, s linalg.Vector) float64 {
	v := t * f.Value(y)
	if a != nil {
		computeSlack(a, b, y, s)
		for i := range s {
			if s[i] <= 0 {
				return math.Inf(1)
			}
			v -= math.Log(s[i])
		}
	}
	return v
}
