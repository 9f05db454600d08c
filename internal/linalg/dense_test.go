package linalg

import (
	"errors"
	"fmt"
	"math"
)

// The dense oracle of the sparse LDLᵀ tests: a row-major matrix and a
// textbook Cholesky factorization, small enough to check by eye, against
// which sparse_test.go and program_test.go compare every sparse solve.

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Add increments the (i, j) entry by x.
func (m *Matrix) Add(i, j int, x float64) { m.Data[i*m.Cols+j] += x }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every entry to 0, keeping the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = M·x. y must have length Rows, x length Cols.
func (m *Matrix) MulVec(x, y Vector) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch (%dx%d)·%d -> %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// MulVecT computes y = Mᵀ·x. y must have length Cols, x length Rows.
func (m *Matrix) MulVecT(x, y Vector) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecT shape mismatch (%dx%d)ᵀ·%d -> %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			y[j] += a * xi
		}
	}
}

// AddOuterScaled adds alpha * row ⊗ row to the symmetric matrix m, where row
// is a row vector of length m.Cols (m must be square with Cols == len(row)).
func (m *Matrix) AddOuterScaled(alpha float64, row Vector) {
	n := m.Cols
	if m.Rows != n || len(row) != n {
		panic("linalg: AddOuterScaled requires square matrix matching row length")
	}
	for i := 0; i < n; i++ {
		ri := row[i]
		if ri == 0 {
			continue
		}
		base := i * n
		ari := alpha * ri
		for j := 0; j < n; j++ {
			m.Data[base+j] += ari * row[j]
		}
	}
}

// CholeskyFactor holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type CholeskyFactor struct {
	n int
	l []float64 // row-major lower triangle, full n×n storage
}

// Cholesky factors the symmetric positive definite matrix a (only the lower
// triangle is read) and returns the factor. The input is not modified.
func Cholesky(a *Matrix) (*CholeskyFactor, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, ErrNotPositiveDefinite
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return &CholeskyFactor{n: n, l: l}, nil
}

// Solve solves A·x = b given the factorization A = L·Lᵀ, returning x.
func (c *CholeskyFactor) Solve(b Vector) Vector {
	x := b.Clone()
	c.SolveInto(b, x)
	return x
}

// SolveInto solves A·x = b into x without allocating. b and x may alias.
func (c *CholeskyFactor) SolveInto(b, x Vector) {
	n := c.n
	if len(b) != n || len(x) != n {
		panic("linalg: CholeskyFactor.SolveInto dimension mismatch")
	}
	copy(x, b)
	// Forward substitution: L·y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*n+k] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
	// Back substitution: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= c.l[k*n+i] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
}

// FactorPD factors the symmetric positive definite matrix a, with a
// diagonal-boost retry if a is nearly singular: a single working copy is
// cloned once and its diagonal boosted in place with a geometrically
// growing eps until A + eps·I factors. The input is never modified. It
// returns the factor — reusable across solves — and the boost applied
// (0 in the common path).
func FactorPD(a *Matrix) (*CholeskyFactor, float64, error) {
	if f, err := Cholesky(a); err == nil {
		return f, 0, nil
	}
	// Compute a scale for the boost from the diagonal magnitude.
	scale := 0.0
	for i := 0; i < a.Rows; i++ {
		if d := math.Abs(a.At(i, i)); d > scale {
			scale = d
		}
	}
	if scale == 0 {
		scale = 1
	}
	ab := a.Clone()
	boost := scale * 1e-12
	applied := 0.0
	for iter := 0; iter < 40; iter++ {
		delta := boost - applied
		for i := 0; i < ab.Rows; i++ {
			ab.Add(i, i, delta)
		}
		applied = boost
		if f, err := Cholesky(ab); err == nil {
			return f, boost, nil
		}
		boost *= 10
	}
	return nil, boost, ErrNotPositiveDefinite
}

// SolvePD solves the symmetric positive definite system A·x = b via
// FactorPD. It returns the solution and the boost that was applied
// (0 if none).
func SolvePD(a *Matrix, b Vector) (Vector, float64, error) {
	f, boost, err := FactorPD(a)
	if err != nil {
		return nil, boost, err
	}
	return f.Solve(b), boost, nil
}

// csrDense materializes a CSR matrix.
func csrDense(a *CSR) *Matrix {
	m := NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			m.Add(i, a.Col[p], a.Val[p])
		}
	}
	return m
}

// symDense materializes the full symmetric matrix in original indexing.
func symDense(s *SparseSym) *Matrix {
	m := NewMatrix(s.n, s.n)
	for c := 0; c < s.n; c++ {
		for p := s.colPtr[c]; p < s.colPtr[c+1]; p++ {
			i, j := s.perm[s.rowIdx[p]], s.perm[c]
			m.Add(i, j, s.Val[p])
			if i != j {
				m.Add(j, i, s.Val[p])
			}
		}
	}
	return m
}
