// Package lp implements a dense two-phase tableau simplex solver for linear
// programs in the form
//
//	minimize    cᵀx
//	subject to  aᵢᵀx (≤ | = | ≥) bᵢ,   x ≥ 0.
//
// It exists to make Theorem 3 of the paper executable: with the Vdd-Hopping
// energy model, MinEnergy(G, D) reduces to a linear program over the time
// each task spends in each mode. The solver prices by Dantzig's rule (the
// most negative reduced cost enters) and falls back to Bland's rule inside
// long degenerate runs, which guarantees termination; it reports optimal /
// infeasible / unbounded status.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is the relation of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // aᵀx ≤ b
	GE            // aᵀx ≥ b
	EQ            // aᵀx = b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Problem is a linear program over non-negative variables.
type Problem struct {
	C    []float64   // objective coefficients, length = number of variables
	A    [][]float64 // constraint rows, each of length len(C)
	B    []float64   // right-hand sides, length = len(A)
	Rels []Rel       // relation per row, length = len(A)
}

// NewProblem returns an empty problem with n variables and the given
// objective coefficients copied in.
func NewProblem(c []float64) *Problem {
	cc := make([]float64, len(c))
	copy(cc, c)
	return &Problem{C: cc}
}

// AddConstraint appends the row aᵀx rel b. The coefficient slice is copied.
func (p *Problem) AddConstraint(a []float64, rel Rel, b float64) {
	if len(a) != len(p.C) {
		panic(fmt.Sprintf("lp: constraint has %d coefficients, want %d", len(a), len(p.C)))
	}
	row := make([]float64, len(a))
	copy(row, a)
	p.A = append(p.A, row)
	p.B = append(p.B, b)
	p.Rels = append(p.Rels, rel)
}

// Result is the outcome of solving a Problem.
type Result struct {
	Status    Status
	X         []float64 // variable values (valid when Status == Optimal)
	Objective float64   // cᵀx at the solution
	Pivots    int       // total simplex pivots across both phases
}

// Options tunes the solver.
type Options struct {
	MaxPivots int     // 0 means a generous default based on problem size
	Tol       float64 // pivot/feasibility tolerance; 0 means 1e-9
}

var errBadProblem = errors.New("lp: malformed problem")

// Solve runs two-phase simplex on p.
func Solve(p *Problem, opts Options) (*Result, error) {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m || len(p.Rels) != m {
		return nil, errBadProblem
	}
	for _, row := range p.A {
		if len(row) != n {
			return nil, errBadProblem
		}
	}
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-9
	}
	maxPivots := opts.MaxPivots
	if maxPivots == 0 {
		maxPivots = 2000 + 200*(n+m)
	}

	t := newTableau(p, tol)
	res := &Result{}

	// Phase 1: minimize the sum of artificial variables.
	if t.numArtificial > 0 {
		st, piv := t.run(maxPivots)
		res.Pivots += piv
		if st == IterationLimit {
			res.Status = IterationLimit
			return res, nil
		}
		if t.objectiveValue() > 1e-7*(1+t.bScale) {
			res.Status = Infeasible
			return res, nil
		}
		if err := t.driveOutArtificials(); err != nil {
			res.Status = Infeasible
			return res, nil
		}
		t.installPhase2Objective(p.C)
	}

	st, piv := t.run(maxPivots - res.Pivots)
	res.Pivots += piv
	switch st {
	case Unbounded:
		res.Status = Unbounded
		return res, nil
	case IterationLimit:
		res.Status = IterationLimit
		return res, nil
	}

	res.Status = Optimal
	res.X = t.extractSolution(n)
	obj := 0.0
	for j, cj := range p.C {
		obj += cj * res.X[j]
	}
	res.Objective = obj
	return res, nil
}

// tableau is a dense simplex tableau with explicit basis bookkeeping.
//
// Columns: [ original (n) | slack/surplus (s) | artificial (a) | rhs ].
// The objective row is stored separately as cost coefficients plus the
// current reduced-cost row recomputed on pivots.
type tableau struct {
	rows          int // m constraint rows
	cols          int // total structural columns (no rhs)
	n             int // original variables
	numSlack      int
	numArtificial int
	a             []float64 // (rows) x (cols) row-major constraint matrix
	rhs           []float64
	cost          []float64 // current objective coefficients per column
	basis         []int     // column index of the basic variable in each row
	tol           float64
	bScale        float64 // max |b|, for scaling feasibility tolerance
	phase1        bool
	objOffset     float64 // objective value of the current basic solution
	pivNZ         []int   // scratch: nonzero columns of the pivot row, reused across pivots
}

func newTableau(p *Problem, tol float64) *tableau {
	n := len(p.C)
	m := len(p.A)
	numSlack := 0
	for _, r := range p.Rels {
		if r == LE || r == GE {
			numSlack++
		}
	}
	// Rows with a negative rhs are flipped so rhs ≥ 0; the relation flips too.
	rels := make([]Rel, m)
	rowSign := make([]float64, m)
	bScale := 0.0
	for i, r := range p.Rels {
		rels[i] = r
		rowSign[i] = 1
		if p.B[i] < 0 {
			rowSign[i] = -1
			switch r {
			case LE:
				rels[i] = GE
			case GE:
				rels[i] = LE
			}
		}
		if ab := math.Abs(p.B[i]); ab > bScale {
			bScale = ab
		}
	}
	// An artificial variable is needed for every GE and EQ row (after the
	// sign flip). LE rows get a slack that can serve as the initial basis.
	numArtificial := 0
	for _, r := range rels {
		if r == GE || r == EQ {
			numArtificial++
		}
	}
	cols := n + numSlack + numArtificial
	t := &tableau{
		rows: m, cols: cols, n: n,
		numSlack: numSlack, numArtificial: numArtificial,
		a:    make([]float64, m*cols),
		rhs:  make([]float64, m),
		cost: make([]float64, cols),
		basis: func() []int {
			b := make([]int, m)
			for i := range b {
				b[i] = -1
			}
			return b
		}(),
		tol:    tol,
		bScale: bScale,
		pivNZ:  make([]int, 0, cols),
	}
	slackCol := n
	artCol := n + numSlack
	for i := 0; i < m; i++ {
		sign := rowSign[i]
		for j, v := range p.A[i] {
			if v != 0 { // constraint rows are sparse; skip the zero copies
				t.a[i*cols+j] = sign * v
			}
		}
		t.rhs[i] = sign * p.B[i]
		switch rels[i] {
		case LE:
			t.a[i*cols+slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i*cols+slackCol] = -1 // surplus
			slackCol++
			t.a[i*cols+artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.a[i*cols+artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}
	if t.numArtificial > 0 {
		// Phase-1 objective: minimize sum of artificials.
		t.phase1 = true
		for j := n + numSlack; j < cols; j++ {
			t.cost[j] = 1
		}
		t.priceOut()
	} else {
		t.installPhase2Objective(p.C)
	}
	return t
}

// priceOut makes the cost row consistent with the current basis by
// subtracting multiples of basic rows so basic columns have zero cost.
func (t *tableau) priceOut() {
	for i := 0; i < t.rows; i++ {
		bj := t.basis[i]
		cb := t.cost[bj]
		if cb == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			t.cost[j] -= cb * t.a[i*t.cols+j]
		}
		t.objOffset += cb * t.rhs[i]
	}
}

// installPhase2Objective replaces the cost row with the real objective
// (artificial columns get +inf-ish cost so they never re-enter).
func (t *tableau) installPhase2Objective(c []float64) {
	t.phase1 = false
	for j := range t.cost {
		t.cost[j] = 0
	}
	copy(t.cost, c)
	t.objOffset = 0
	t.priceOut()
}

func (t *tableau) objectiveValue() float64 {
	// cᵀx for basic solution = Σ_over rows cost_basis * rhs — but after
	// priceOut the reduced costs of basic columns are zero and the value is
	// accumulated in objOffset.
	return t.objOffset
}

// blandAfter is the number of consecutive degenerate pivots after which
// run stops pricing by Dantzig's rule and enters the first eligible column.
const blandAfter = 50

// run performs simplex pivots until optimality, unboundedness, or the pivot
// budget is exhausted. The entering column is the one of most negative
// reduced cost (Dantzig's rule), except after blandAfter consecutive
// degenerate (zero-ratio) pivots, when it is the first eligible column
// (Bland's rule) until the next non-degenerate pivot. That still terminates:
// a non-degenerate pivot strictly lowers the objective, so a cycle lies
// inside one degenerate run, and Bland's rule ends every such run.
func (t *tableau) run(maxPivots int) (Status, int) {
	pivots, degenerate := 0, 0
	eligible := t.cols
	if !t.phase1 {
		eligible = t.n + t.numSlack // never re-enter artificial columns in phase 2
	}
	for {
		enter := -1
		best := -t.tol
		for j := 0; j < eligible; j++ {
			if t.cost[j] < best {
				enter, best = j, t.cost[j]
				if degenerate >= blandAfter {
					break // Bland: first eligible
				}
			}
		}
		if enter < 0 {
			return Optimal, pivots
		}
		// Ratio test with Bland tie-breaking on the leaving basic variable.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.rows; i++ {
			aij := t.a[i*t.cols+enter]
			if aij > t.tol {
				ratio := t.rhs[i] / aij
				if ratio < bestRatio-t.tol || (math.Abs(ratio-bestRatio) <= t.tol &&
					(leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, pivots
		}
		if bestRatio <= t.tol {
			degenerate++
		} else {
			degenerate = 0
		}
		t.pivot(leave, enter)
		pivots++
		if pivots >= maxPivots {
			return IterationLimit, pivots
		}
	}
}

// pivot eliminates column col from every row but the pivot row. The LP
// rows of the Vdd program are mostly zero (each constraint touches one
// task's modes plus two completion times), so the eliminations iterate
// only the pivot row's nonzero columns, collected once into a reused
// scratch slice. Skipping exact zeros leaves the arithmetic bitwise
// identical to the dense sweep: subtracting f·0 never changes a value.
func (t *tableau) pivot(row, col int) {
	cols := t.cols
	p := t.a[row*cols+col]
	inv := 1 / p
	prow := t.a[row*cols : row*cols+cols]
	nz := t.pivNZ[:0]
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * inv
			nz = append(nz, j)
		}
	}
	t.pivNZ = nz
	t.rhs[row] *= inv
	for i := 0; i < t.rows; i++ {
		if i == row {
			continue
		}
		f := t.a[i*cols+col]
		if f == 0 {
			continue
		}
		irow := t.a[i*cols : i*cols+cols]
		for _, j := range nz {
			irow[j] -= f * prow[j]
		}
		t.rhs[i] -= f * t.rhs[row]
	}
	cf := t.cost[col]
	if cf != 0 {
		for _, j := range nz {
			t.cost[j] -= cf * prow[j]
		}
		t.objOffset += cf * t.rhs[row]
	}
	t.basis[row] = col
}

// driveOutArtificials removes any artificial variables that remain basic at
// level ~0 after phase 1 by pivoting in a non-artificial column, or drops
// the (redundant) row when none exists.
func (t *tableau) driveOutArtificials() error {
	artStart := t.n + t.numSlack
	for i := 0; i < t.rows; i++ {
		if t.basis[i] < artStart {
			continue
		}
		if t.rhs[i] > 1e-7*(1+t.bScale) {
			return errors.New("lp: artificial basic at positive level")
		}
		pivoted := false
		for j := 0; j < artStart; j++ {
			if math.Abs(t.a[i*t.cols+j]) > t.tol*10 {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it out so it never constrains anything.
			for j := 0; j < t.cols; j++ {
				t.a[i*t.cols+j] = 0
			}
			t.a[i*t.cols+t.basis[i]] = 1
			t.rhs[i] = 0
		}
	}
	return nil
}

func (t *tableau) extractSolution(n int) []float64 {
	x := make([]float64, n)
	for i, bj := range t.basis {
		if bj < n {
			x[bj] = t.rhs[i]
		}
	}
	// Clamp tiny negatives introduced by roundoff.
	for j := range x {
		if x[j] < 0 && x[j] > -1e-9 {
			x[j] = 0
		}
	}
	return x
}
