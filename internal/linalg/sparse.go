package linalg

import (
	"fmt"
	"sort"
)

// CSR is a sparse matrix in compressed-sparse-row form. The constraint
// matrices of the interior-point solvers are the motivating shape: every
// row (a precedence, start, deadline, or speed-bound constraint) has at
// most three nonzeros, so matrix-vector products and Hessian assembly
// cost O(nnz) instead of O(rows·cols).
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1; row i occupies [RowPtr[i], RowPtr[i+1])
	Col        []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// MulVec computes y = A·x. y must have length Rows, x length Cols.
func (a *CSR) MulVec(x, y Vector) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("linalg: CSR.MulVec shape mismatch (%dx%d)·%d -> %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Val[p] * x[a.Col[p]]
		}
		y[i] = s
	}
}

// MulVecT computes y = Aᵀ·x. y must have length Cols, x length Rows.
func (a *CSR) MulVecT(x, y Vector) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("linalg: CSR.MulVecT shape mismatch (%dx%d)ᵀ·%d -> %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			y[a.Col[p]] += a.Val[p] * xi
		}
	}
}

// AddMulVecT accumulates y += Aᵀ·x without zeroing y first.
func (a *CSR) AddMulVecT(x, y Vector) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("linalg: CSR.AddMulVecT shape mismatch (%dx%d)ᵀ·%d -> %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			y[a.Col[p]] += a.Val[p] * xi
		}
	}
}

// CSRBuilder assembles a CSR matrix one row at a time. Entries of the
// current row are staged with Set; EndRow sorts them by column, merges
// duplicates, and appends the row. The builder is append-only — rows are
// finalized in order.
type CSRBuilder struct {
	cols   int
	rowPtr []int
	col    []int
	val    []float64
}

// NewCSRBuilder starts a builder for matrices with the given column count.
func NewCSRBuilder(cols int) *CSRBuilder {
	if cols < 0 {
		panic(fmt.Sprintf("linalg: NewCSRBuilder negative column count %d", cols))
	}
	return &CSRBuilder{cols: cols, rowPtr: []int{0}}
}

// Set stages one entry of the current row. Repeated columns accumulate.
func (b *CSRBuilder) Set(col int, val float64) {
	if col < 0 || col >= b.cols {
		panic(fmt.Sprintf("linalg: CSRBuilder.Set column %d out of range [0,%d)", col, b.cols))
	}
	b.col = append(b.col, col)
	b.val = append(b.val, val)
}

// EndRow finalizes the current row: entries are sorted by column and
// duplicate columns summed.
func (b *CSRBuilder) EndRow() {
	start := b.rowPtr[len(b.rowPtr)-1]
	row := b.col[start:]
	vals := b.val[start:]
	if len(row) > 1 {
		sort.Sort(&rowSorter{col: row, val: vals})
		// Merge duplicates in place.
		w := 0
		for r := 1; r < len(row); r++ {
			if row[r] == row[w] {
				vals[w] += vals[r]
			} else {
				w++
				row[w], vals[w] = row[r], vals[r]
			}
		}
		b.col = b.col[:start+w+1]
		b.val = b.val[:start+w+1]
	}
	b.rowPtr = append(b.rowPtr, len(b.col))
}

// Build returns the assembled matrix. The builder must not be reused.
func (b *CSRBuilder) Build() *CSR {
	return &CSR{
		Rows:   len(b.rowPtr) - 1,
		Cols:   b.cols,
		RowPtr: b.rowPtr,
		Col:    b.col,
		Val:    b.val,
	}
}

type rowSorter struct {
	col []int
	val []float64
}

func (s *rowSorter) Len() int           { return len(s.col) }
func (s *rowSorter) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s *rowSorter) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}
