package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("Solve status = %v, want optimal", res.Status)
	}
	return res
}

func TestSimpleLE(t *testing.T) {
	// min -x - y s.t. x + y <= 4, x <= 2  => x=2, y=2, obj=-4
	p := NewProblem([]float64{-1, -1})
	p.AddConstraint([]float64{1, 1}, LE, 4)
	p.AddConstraint([]float64{1, 0}, LE, 2)
	res := solveOK(t, p)
	if math.Abs(res.Objective+4) > 1e-8 {
		t.Fatalf("objective = %v, want -4", res.Objective)
	}
	if math.Abs(res.X[0]-2) > 1e-8 || math.Abs(res.X[1]-2) > 1e-8 {
		t.Fatalf("x = %v, want [2 2]", res.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 3 => x=3, y=0, obj=3
	p := NewProblem([]float64{1, 2})
	p.AddConstraint([]float64{1, 1}, EQ, 3)
	res := solveOK(t, p)
	if math.Abs(res.Objective-3) > 1e-8 {
		t.Fatalf("objective = %v, want 3", res.Objective)
	}
}

func TestGEConstraint(t *testing.T) {
	// min x + y s.t. x + 2y >= 4, 3x + y >= 6 => intersection (8/5, 6/5), obj 14/5
	p := NewProblem([]float64{1, 1})
	p.AddConstraint([]float64{1, 2}, GE, 4)
	p.AddConstraint([]float64{3, 1}, GE, 6)
	res := solveOK(t, p)
	if math.Abs(res.Objective-2.8) > 1e-8 {
		t.Fatalf("objective = %v, want 2.8", res.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2 cannot hold.
	p := NewProblem([]float64{1})
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{1}, GE, 2)
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with only x >= 1: unbounded below.
	p := NewProblem([]float64{-1})
	p.AddConstraint([]float64{1}, GE, 1)
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3) => x=3.
	p := NewProblem([]float64{1})
	p.AddConstraint([]float64{-1}, LE, -3)
	res := solveOK(t, p)
	if math.Abs(res.X[0]-3) > 1e-8 {
		t.Fatalf("x = %v, want 3", res.X)
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// A classically degenerate LP (Beale-like); the solve must terminate.
	p := NewProblem([]float64{-0.75, 150, -0.02, 6})
	p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	res := solveOK(t, p)
	if math.Abs(res.Objective+0.05) > 1e-8 {
		t.Fatalf("objective = %v, want -0.05", res.Objective)
	}
}

// TestBealeTerminates guards the anti-cycling fallback: Beale's LP cycles
// forever under Dantzig's rule alone (a pivot budget of thousands ends in
// IterationLimit), while the switch to Bland's rule inside degenerate runs
// ends it at the optimum.
func TestBealeTerminates(t *testing.T) {
	p := NewProblem([]float64{-0.75, 20, -0.5, 6})
	p.AddConstraint([]float64{0.25, -8, -1, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -12, -0.5, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	res := solveOK(t, p)
	if res.Pivots > 100 {
		t.Fatalf("%d pivots, want at most 100", res.Pivots)
	}
	if math.Abs(res.Objective+1.25) > 1e-9 {
		t.Fatalf("objective = %v, want -1.25", res.Objective)
	}
	for j, want := range []float64{1, 0, 1, 0} {
		if math.Abs(res.X[j]-want) > 1e-9 {
			t.Fatalf("x = %v, want [1 0 1 0]", res.X)
		}
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows should not break phase 1.
	p := NewProblem([]float64{1, 1})
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	res := solveOK(t, p)
	if math.Abs(res.Objective-2) > 1e-8 {
		t.Fatalf("objective = %v, want 2", res.Objective)
	}
}

func TestZeroObjective(t *testing.T) {
	// Feasibility problem: any feasible point is optimal with objective 0.
	p := NewProblem([]float64{0, 0})
	p.AddConstraint([]float64{1, 1}, GE, 1)
	p.AddConstraint([]float64{1, 1}, LE, 3)
	res := solveOK(t, p)
	s := res.X[0] + res.X[1]
	if s < 1-1e-8 || s > 3+1e-8 {
		t.Fatalf("infeasible point returned: %v", res.X)
	}
}

func TestConstraintDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong constraint width")
		}
	}()
	p := NewProblem([]float64{1, 2})
	p.AddConstraint([]float64{1}, LE, 1)
}

func TestMalformedProblem(t *testing.T) {
	p := &Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1}} // missing Rels
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("expected error for malformed problem")
	}
}

// bruteForceVertexOpt enumerates basic solutions of small dense LPs with only
// LE rows plus x >= 0 by checking all vertices of the polytope: for n
// variables and m constraints pick n active constraints among the m rows and
// the n axes. Exponential, test-only reference.
func bruteForceVertexOpt(c []float64, a [][]float64, b []float64) (float64, bool) {
	n := len(c)
	m := len(a)
	total := m + n
	best := math.Inf(1)
	found := false
	idx := make([]int, n)
	var rec func(start, k int)
	feasible := func(x []float64) bool {
		for j := range x {
			if x[j] < -1e-7 {
				return false
			}
		}
		for i := range a {
			s := 0.0
			for j := range x {
				s += a[i][j] * x[j]
			}
			if s > b[i]+1e-7 {
				return false
			}
		}
		return true
	}
	var solveActive func() ([]float64, bool)
	solveActive = func() ([]float64, bool) {
		// Build n x n system from the active set.
		mat := make([][]float64, n)
		rhs := make([]float64, n)
		for r, id := range idx {
			mat[r] = make([]float64, n)
			if id < m {
				copy(mat[r], a[id])
				rhs[r] = b[id]
			} else {
				mat[r][id-m] = 1
				rhs[r] = 0
			}
		}
		// Gaussian elimination with partial pivoting.
		for col := 0; col < n; col++ {
			piv := -1
			pv := 1e-10
			for r := col; r < n; r++ {
				if av := math.Abs(mat[r][col]); av > pv {
					pv = av
					piv = r
				}
			}
			if piv < 0 {
				return nil, false
			}
			mat[col], mat[piv] = mat[piv], mat[col]
			rhs[col], rhs[piv] = rhs[piv], rhs[col]
			for r := 0; r < n; r++ {
				if r == col {
					continue
				}
				f := mat[r][col] / mat[col][col]
				if f == 0 {
					continue
				}
				for cc := col; cc < n; cc++ {
					mat[r][cc] -= f * mat[col][cc]
				}
				rhs[r] -= f * rhs[col]
			}
		}
		x := make([]float64, n)
		for r := 0; r < n; r++ {
			x[r] = rhs[r] / mat[r][r]
		}
		return x, true
	}
	rec = func(start, k int) {
		if k == n {
			if x, ok := solveActive(); ok && feasible(x) {
				v := 0.0
				for j := range x {
					v += c[j] * x[j]
				}
				if v < best {
					best = v
					found = true
				}
			}
			return
		}
		for i := start; i < total; i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

func TestRandomAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3) // 2..4 variables
		m := 2 + rng.Intn(4) // 2..5 constraints
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 2
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Float64() // non-negative rows keep it bounded-ish
			}
			b[i] = 1 + rng.Float64()*4
		}
		// Add a box x_j <= 10 to guarantee boundedness.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			a = append(a, row)
			b = append(b, 10)
		}
		m = len(a)
		want, ok := bruteForceVertexOpt(c, a, b)
		if !ok {
			continue
		}
		p := NewProblem(c)
		for i := range a {
			p.AddConstraint(a[i], LE, b[i])
		}
		res, err := Solve(p, Options{})
		if err != nil || res.Status != Optimal {
			t.Fatalf("trial %d: status=%v err=%v", trial, res.Status, err)
		}
		if math.Abs(res.Objective-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("trial %d: objective %v, brute force %v", trial, res.Objective, want)
		}
	}
}

func TestPivotCountReported(t *testing.T) {
	p := NewProblem([]float64{-1, -1})
	p.AddConstraint([]float64{1, 1}, LE, 4)
	res := solveOK(t, p)
	if res.Pivots <= 0 {
		t.Fatalf("expected positive pivot count, got %d", res.Pivots)
	}
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem([]float64{-1, -1, -1})
	p.AddConstraint([]float64{1, 1, 1}, LE, 4)
	p.AddConstraint([]float64{1, 2, 1}, LE, 6)
	res, err := Solve(p, Options{MaxPivots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != IterationLimit && res.Status != Optimal {
		t.Fatalf("unexpected status %v", res.Status)
	}
}

func TestRelAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("Rel strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterationLimit.String() != "iteration-limit" {
		t.Fatal("Status strings wrong")
	}
	if Rel(99).String() == "" || Status(99).String() == "" {
		t.Fatal("unknown values should still render")
	}
}
