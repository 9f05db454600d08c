package convex

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// quadratic is f(x) = 0.5 xᵀQx - pᵀx with Q diagonal.
type quadratic struct {
	q, p linalg.Vector
}

func (f *quadratic) Value(x linalg.Vector) float64 {
	v := 0.0
	for i := range x {
		v += 0.5*f.q[i]*x[i]*x[i] - f.p[i]*x[i]
	}
	return v
}

func (f *quadratic) Gradient(x, g linalg.Vector) {
	for i := range x {
		g[i] = f.q[i]*x[i] - f.p[i]
	}
}

func (f *quadratic) HessianDiag(x, h linalg.Vector) {
	copy(h, f.q)
}

// powerSum is f(d) = Σ wᵢ³/dᵢ², the continuous-model energy in durations.
type powerSum struct {
	w linalg.Vector
}

func (f *powerSum) Value(x linalg.Vector) float64 {
	v := 0.0
	for i := range x {
		v += math.Pow(f.w[i], 3) / (x[i] * x[i])
	}
	return v
}

func (f *powerSum) Gradient(x, g linalg.Vector) {
	for i := range x {
		g[i] = -2 * math.Pow(f.w[i], 3) / math.Pow(x[i], 3)
	}
}

func (f *powerSum) HessianDiag(x, h linalg.Vector) {
	for i := range x {
		h[i] = 6 * math.Pow(f.w[i], 3) / math.Pow(x[i], 4)
	}
}

// rows builds a CSR constraint matrix from dense rows.
func rows(n int, rs ...[]float64) *linalg.CSR {
	cb := linalg.NewCSRBuilder(n)
	for _, r := range rs {
		for j, v := range r {
			if v != 0 {
				cb.Set(j, v)
			}
		}
		cb.EndRow()
	}
	return cb.Build()
}

func TestActiveBoxConstraint(t *testing.T) {
	// min 0.5 x² - 4x s.t. x <= 2: unconstrained optimum 4, so x*=2.
	f := &quadratic{q: linalg.Vector{1}, p: linalg.Vector{4}}
	res, err := SparseMinimize(f, rows(1, []float64{1}), linalg.Vector{2}, linalg.Vector{0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-4 {
		t.Fatalf("x = %v, want 2", res.X[0])
	}
}

func TestInactiveConstraint(t *testing.T) {
	// min 0.5 x² - x s.t. x <= 100: optimum 1, interior.
	f := &quadratic{q: linalg.Vector{1}, p: linalg.Vector{1}}
	res, err := SparseMinimize(f, rows(1, []float64{1}), linalg.Vector{100}, linalg.Vector{3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-5 {
		t.Fatalf("x = %v, want 1", res.X[0])
	}
}

func TestInfeasibleStartRejected(t *testing.T) {
	// The start must be strictly feasible: on the boundary is not enough.
	f := &quadratic{q: linalg.Vector{1}, p: linalg.Vector{0}}
	if _, err := SparseMinimize(f, rows(1, []float64{1}), linalg.Vector{1}, linalg.Vector{1}, Options{}); err == nil {
		t.Fatal("expected infeasible-start error")
	}
}

func TestDimensionMismatch(t *testing.T) {
	// One row but two right-hand sides.
	f := &quadratic{q: linalg.Vector{1}, p: linalg.Vector{0}}
	if _, err := SparseMinimize(f, rows(1, []float64{1}), linalg.Vector{1, 1}, linalg.Vector{0.5}, Options{}); err != ErrDimension {
		t.Fatalf("expected ErrDimension, got %v", err)
	}
}

// Chain energy: two tasks sharing a deadline. min w₁³/d₁² + w₂³/d₂²
// s.t. d₁ + d₂ <= D. The optimum runs both at the same speed
// s = (w₁+w₂)/D, i.e. dᵢ = wᵢ·D/(w₁+w₂), energy (w₁+w₂)³/D².
func TestChainEnergyClosedForm(t *testing.T) {
	w1, w2, D := 3.0, 5.0, 4.0
	f := &powerSum{w: linalg.Vector{w1, w2}}
	// Constraints: d1 + d2 <= D, -d1 <= -lo, -d2 <= -lo (keep away from 0).
	lo := 1e-4
	a := rows(2, []float64{1, 1}, []float64{-1, 0}, []float64{0, -1})
	b := linalg.Vector{D, -lo, -lo}
	x0 := linalg.Vector{D / 4, D / 4}
	res, err := SparseMinimize(f, a, b, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantE := math.Pow(w1+w2, 3) / (D * D)
	if math.Abs(res.Value-wantE) > 1e-9*wantE {
		t.Fatalf("energy = %v, want %v", res.Value, wantE)
	}
	wantD1 := w1 * D / (w1 + w2)
	if math.Abs(res.X[0]-wantD1) > 1e-7 {
		t.Fatalf("d1 = %v, want %v", res.X[0], wantD1)
	}
}

// Fork energy check against Theorem 1 with smax = ∞: source T0 then n
// children in parallel, each child constrained by d0 + di <= D.
func TestForkEnergyMatchesTheorem1(t *testing.T) {
	w := linalg.Vector{2, 1, 3, 4} // w[0] = source
	D := 5.0
	n := len(w) - 1
	f := &powerSum{w: w}
	cb := linalg.NewCSRBuilder(len(w))
	var b linalg.Vector
	for i := 0; i < n; i++ {
		cb.Set(0, 1)
		cb.Set(i+1, 1)
		cb.EndRow()
		b = append(b, D)
	}
	lo := 1e-4
	for j := range w {
		cb.Set(j, -1)
		cb.EndRow()
		b = append(b, -lo)
	}
	x0 := linalg.NewVector(len(w))
	for j := range x0 {
		x0[j] = D / 3
	}
	res, err := SparseMinimize(f, cb.Build(), b, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sumCubes := 0.0
	for i := 1; i < len(w); i++ {
		sumCubes += math.Pow(w[i], 3)
	}
	s0 := (math.Cbrt(sumCubes) + w[0]) / D
	wantE := w[0]*s0*s0 + sumCubes/math.Pow(D-w[0]/s0, 2)
	if math.Abs(res.Value-wantE) > 1e-9*wantE {
		t.Fatalf("fork energy = %v, want %v (Theorem 1)", res.Value, wantE)
	}
}

func TestResultDiagnostics(t *testing.T) {
	f := &quadratic{q: linalg.Vector{1}, p: linalg.Vector{1}}
	a := rows(1, []float64{1}, []float64{-1})
	res, err := SparseMinimize(f, a, linalg.Vector{10, 10}, linalg.Vector{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Newton == 0 {
		t.Fatalf("expected a nonzero iteration counter: %+v", res)
	}
	if res.GapBound > 1e-6 {
		t.Fatalf("gap bound too large: %v", res.GapBound)
	}
	if len(res.Lambda) != a.Rows {
		t.Fatalf("%d multipliers for %d rows", len(res.Lambda), a.Rows)
	}
	// sᵀλ with s = b − A·x is the gap the kernel reports.
	gap := (10-res.X[0])*res.Lambda[0] + (10+res.X[0])*res.Lambda[1]
	if !(res.Lambda.Min() > 0) || math.Abs(gap-res.GapBound) > 1e-9*(1+res.GapBound) {
		t.Fatalf("multipliers %v give gap %g, kernel reports %g", res.Lambda, gap, res.GapBound)
	}
}
