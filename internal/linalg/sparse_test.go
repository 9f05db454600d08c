package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomCSR builds a random sparse matrix and its dense twin.
func randomCSR(rng *rand.Rand, rows, cols, perRow int) (*CSR, *Matrix) {
	b := NewCSRBuilder(cols)
	d := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		k := 1 + rng.Intn(perRow)
		for e := 0; e < k; e++ {
			j := rng.Intn(cols)
			v := rng.NormFloat64()
			b.Set(j, v)
			d.Add(i, j, v)
		}
		b.EndRow()
	}
	return b.Build(), d
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a, d := randomCSR(rng, rows, cols, 4)
		x := NewVector(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ys, yd := NewVector(rows), NewVector(rows)
		a.MulVec(x, ys)
		d.MulVec(x, yd)
		for i := range ys {
			if math.Abs(ys[i]-yd[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVec[%d] = %g dense %g", trial, i, ys[i], yd[i])
			}
		}
		z := NewVector(rows)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		ws, wd := NewVector(cols), NewVector(cols)
		a.MulVecT(z, ws)
		d.MulVecT(z, wd)
		for j := range ws {
			if math.Abs(ws[j]-wd[j]) > 1e-12 {
				t.Fatalf("trial %d: MulVecT[%d] = %g dense %g", trial, j, ws[j], wd[j])
			}
		}
		// AddMulVecT accumulates.
		acc := ws.Clone()
		a.AddMulVecT(z, acc)
		for j := range acc {
			if math.Abs(acc[j]-2*ws[j]) > 1e-12 {
				t.Fatalf("trial %d: AddMulVecT[%d] = %g want %g", trial, j, acc[j], 2*ws[j])
			}
		}
	}
}

func TestCSRBuilderMergesDuplicates(t *testing.T) {
	b := NewCSRBuilder(4)
	b.Set(2, 1)
	b.Set(0, 3)
	b.Set(2, 4) // duplicate column accumulates
	b.EndRow()
	b.EndRow() // empty row
	a := b.Build()
	if a.Rows != 2 || a.Cols != 4 || a.NNZ() != 2 {
		t.Fatalf("got rows=%d cols=%d nnz=%d", a.Rows, a.Cols, a.NNZ())
	}
	d := csrDense(a)
	if d.At(0, 0) != 3 || d.At(0, 2) != 5 {
		t.Fatalf("merged row wrong: %v", d.Data)
	}
	// Columns sorted within the row.
	for p := a.RowPtr[0] + 1; p < a.RowPtr[1]; p++ {
		if a.Col[p-1] >= a.Col[p] {
			t.Fatalf("row columns unsorted: %v", a.Col)
		}
	}
}

// randomSPDPattern builds a random sparse SPD matrix as D + AᵀA structure:
// a diagonally dominant symmetric matrix over a random sparse pattern.
func randomSparseSPD(rng *rand.Rand, n int) (*SparseSym, *Matrix) {
	b := NewSymBuilder(n)
	type pair struct{ i, j int }
	var offs []pair
	for e := 0; e < 3*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		b.Add(i, j)
		offs = append(offs, pair{i, j})
	}
	s := b.Compile()
	d := NewMatrix(n, n)
	s.ZeroVals()
	for _, p := range offs {
		v := rng.NormFloat64() * 0.1
		s.Val[s.Slot(p.i, p.j)] += v
		d.Add(p.i, p.j, v)
		d.Add(p.j, p.i, v)
	}
	for i := 0; i < n; i++ {
		v := 2 + rng.Float64()
		s.Val[s.Slot(i, i)] += v
		d.Add(i, i, v)
	}
	return s, d
}

func TestSparseSymFactorSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(40)
		s, d := randomSparseSPD(rng, n)
		boost, err := s.Factor()
		if err != nil {
			t.Fatalf("trial %d: Factor: %v", trial, err)
		}
		if boost != 0 {
			t.Fatalf("trial %d: unexpected boost %g on SPD matrix", trial, boost)
		}
		rhs := NewVector(n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x := NewVector(n)
		s.SolveInto(rhs, x)
		want, _, err := SolvePD(d, rhs)
		if err != nil {
			t.Fatalf("trial %d: dense SolvePD: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %g dense %g", trial, i, x[i], want[i])
			}
		}
		// Residual check: H·x ≈ rhs.
		hd := symDense(s)
		res := NewVector(n)
		hd.MulVec(x, res)
		for i := range res {
			if math.Abs(res[i]-rhs[i]) > 1e-8 {
				t.Fatalf("trial %d: residual[%d] = %g", trial, i, res[i]-rhs[i])
			}
		}
	}
}

func TestSparseSymRefactorReusesPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 30
	s, _ := randomSparseSPD(rng, n)
	if _, err := s.Factor(); err != nil {
		t.Fatalf("first Factor: %v", err)
	}
	// Re-assemble different values on the same pattern and refactor; the
	// whole cycle must not allocate.
	rhs, x := NewVector(n), NewVector(n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	diag := make([]int, n)
	for i := 0; i < n; i++ {
		diag[i] = s.Slot(i, i)
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.ZeroVals()
		for i := 0; i < n; i++ {
			s.Val[diag[i]] = 3 + float64(i%5)
		}
		if _, err := s.Factor(); err != nil {
			t.Fatalf("refactor: %v", err)
		}
		s.SolveInto(rhs, x)
	})
	if allocs != 0 {
		t.Fatalf("refactor+solve allocated %v times per run, want 0", allocs)
	}
}

func TestSparseSymBoostRecoversSingular(t *testing.T) {
	b := NewSymBuilder(3)
	b.Add(0, 1)
	s := b.Compile()
	s.ZeroVals()
	// Rank-deficient: [[1,1,0],[1,1,0],[0,0,1]] (rows 0,1 identical).
	s.Val[s.Slot(0, 0)] = 1
	s.Val[s.Slot(1, 1)] = 1
	s.Val[s.Slot(0, 1)] = 1
	s.Val[s.Slot(2, 2)] = 1
	boost, err := s.Factor()
	if err != nil {
		t.Fatalf("Factor on singular matrix: %v", err)
	}
	if boost <= 0 {
		t.Fatalf("expected a positive boost, got %g", boost)
	}
	// Val must be restored to the original (unboosted) values.
	if s.Val[s.Slot(0, 0)] != 1 || s.Val[s.Slot(2, 2)] != 1 {
		t.Fatalf("Factor left boost in Val: %v", s.Val)
	}
	// The factor solves the boosted system: H + boost·I is PD.
	x := NewVector(3)
	s.SolveInto(Vector{1, 1, 1}, x)
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("solve with boosted factor produced %v", x)
		}
	}
}

func TestSparseSymSlotUnknownPosition(t *testing.T) {
	b := NewSymBuilder(4)
	b.Add(0, 1)
	s := b.Compile()
	if s.Slot(2, 3) != -1 {
		t.Fatalf("Slot(2,3) = %d, want -1", s.Slot(2, 3))
	}
	if s.Slot(1, 0) == -1 || s.Slot(1, 0) != s.Slot(0, 1) {
		t.Fatalf("Slot must be symmetric: %d vs %d", s.Slot(1, 0), s.Slot(0, 1))
	}
}

func TestRCMIsAPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(50)
		s, _ := randomSparseSPD(rng, n)
		seen := make([]bool, n)
		for _, old := range s.perm {
			if old < 0 || old >= n || seen[old] {
				t.Fatalf("trial %d: perm not a permutation: %v", trial, s.perm)
			}
			seen[old] = true
		}
		for old, new := range s.pinv {
			if s.perm[new] != old {
				t.Fatalf("trial %d: pinv inconsistent with perm", trial)
			}
		}
	}
}

func TestRCMReducesChainBandwidth(t *testing.T) {
	// A chain numbered badly: RCM should recover an ordering whose factor
	// has no fill (a path graph eliminates perfectly in band order).
	n := 64
	b := NewSymBuilder(n)
	order := rand.New(rand.NewSource(3)).Perm(n)
	for k := 0; k+1 < n; k++ {
		b.Add(order[k], order[k+1])
	}
	s := b.Compile()
	// Pattern nnz: n diagonal + n-1 off-diagonal. A perfect elimination
	// order gives L with exactly n-1 off-diagonal entries.
	if s.FactorNNZ() != n-1 {
		t.Fatalf("chain factor has %d off-diagonal entries, want %d (no fill)", s.FactorNNZ(), n-1)
	}
}

func TestFactorPDBoostsInPlaceAndReturnsFactor(t *testing.T) {
	// Singular 2×2: identical rows.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	orig := a.Clone()
	f, boost, err := FactorPD(a)
	if err != nil {
		t.Fatalf("FactorPD: %v", err)
	}
	if boost <= 0 {
		t.Fatalf("expected positive boost, got %g", boost)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatalf("FactorPD modified its input")
		}
	}
	// The returned factor is reusable across right-hand sides.
	x1 := f.Solve(Vector{1, 0})
	x2 := NewVector(2)
	f.SolveInto(Vector{0, 1}, x2)
	for _, v := range append(x1.Clone(), x2...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("factor solve produced non-finite value")
		}
	}
}
