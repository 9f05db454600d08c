package convex

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
)

// The sparse code path: a Mehrotra predictor-corrector primal-dual
// interior point. With slacks s ≥ 0 and multipliers λ ≥ 0 it drives
//
//	r_d = ∇f + Aᵀλ,   r_p = A·x + s − b,   s∘λ
//
// to zero, carrying s as its own variable so that tiny slacks survive
// roundoff (r_p only holds that drift, and each step pulls it back).
// Every constraint row of MinEnergy(G, D) — precedence tᵤ + d_v ≤ t_v,
// start d ≤ t, deadline t ≤ D, speed bounds on d — has at most three
// nonzeros, and the energy objective Σ wᵢ³/dᵢ² is separable, so the
// Newton matrix
//
//	H = ∇²f + Aᵀdiag(λ/s)A
//
// has exactly the sparsity of the execution graph. SparseProgram.Minimize
// assembles it directly in sparse form through precomputed scatter maps,
// factors it once per iteration with the cached-symbolic LDLᵀ of
// internal/linalg, and solves twice against that factor (the affine
// predictor, then the centred corrector). An iteration costs O(nnz(L))
// and performs zero heap allocations. Every loop runs sequentially in a
// fixed order, so a solve gives the same bits on any core count.

// DiagObjective is a twice-differentiable convex function with a
// diagonal Hessian — the separable objectives of the energy programs.
type DiagObjective interface {
	// Value returns f(x).
	Value(x linalg.Vector) float64
	// Gradient writes ∇f(x) into g.
	Gradient(x, g linalg.Vector)
	// HessianDiag writes the diagonal of ∇²f(x) into h.
	HessianDiag(x, h linalg.Vector)
}

const (
	// pdMaxIter caps primal-dual iterations; a solve still short of the
	// stopping tests then fails with ErrNumerical.
	pdMaxIter = 300
	// pdStepFrac is the fraction of the distance to the boundary of
	// s, λ ≥ 0 that one step covers.
	pdStepFrac = 0.99
	// The step-back shrinks the step by pdStepBack until every sᵢλᵢ is
	// at least pdCentral times the new mean μ.
	pdCentral  = 1e-3
	pdStepBack = 0.9
	// While ‖r_d‖∞ exceeds pdDualLag·μ a step only re-centres (σ = 1):
	// the gap must not close ahead of dual feasibility, because the
	// roundoff in λ's update grows like λ/s as μ shrinks and on degenerate
	// instances would pin r_d above the stopping test.
	pdDualLag = 100
	// pdTolScale divides Options.Tol for both stopping tests.
	pdTolScale = 100
	// pdEps is the float64 machine epsilon, the scale of both stopping
	// tests' roundoff floors. The gap test also passes once
	// μ ≤ pdEps·(1 + ‖λ‖∞): below that the active slacks sit under the
	// roundoff of A·x, so on systems with tens of thousands of rows
	// sᵀλ ≤ Tol/100 is out of reach. The dual test also passes, once the
	// gap test holds, when ‖r_d‖∞ is already below the rounding the next
	// step's dual update would add to it (dualFloor).
	pdEps = 0x1p-52
)

// SparseProgram is the compiled, structure-determined part of a sparse
// interior-point solve: the Newton-matrix pattern, fill-reducing
// ordering, symbolic factorization, and scatter maps for the constraint
// system A·x ≤ b. It is bound to one constraint matrix A (pattern and
// values), fixed at CompileSparse; the objective f, right-hand side b,
// and start point vary per Minimize.
//
// A program is safe for concurrent use: Minimize borrows a pooled
// per-solve workspace (numeric factor + iteration vectors) per call, so N
// goroutines can solve against one shared compile. Structure-keyed
// caches store this object to amortize the one-time work across requests
// that share a sparsity pattern.
type SparseProgram struct {
	a *linalg.CSR
	n int // variables
	m int // constraints

	sym *linalg.SymProgram

	// Scatter maps, fixed at compile: constraint row i contributes
	// wᵢ·pairProd[k] to h.Val[pairSlot[k]] for k in [pairPtr[i],
	// pairPtr[i+1]), with wᵢ = λᵢ/sᵢ. diagSlot[j] addresses H[j,j] for
	// the objective's diagonal.
	pairPtr  []int
	pairSlot []int32
	pairProd []float64
	diagSlot []int32

	// pool recycles per-solve workspaces across Minimize calls.
	pool sync.Pool
}

// sparseSolver is one solve's workspace over a compiled SparseProgram:
// the numeric factor plus every vector the iteration needs, so
// iterations allocate nothing. The structural fields (a, scatter maps)
// alias the program and are read-only; f and b are set per solve.
type sparseSolver struct {
	f DiagObjective
	a *linalg.CSR
	b linalg.Vector
	n int // variables
	m int // constraints

	h *linalg.SparseSym
	// Scatter maps; see SparseProgram.
	pairPtr  []int
	pairSlot []int32
	pairProd []float64
	diagSlot []int32

	// Iterate and workspaces. The step weights w = λ/s are computed on
	// the fly wherever they are needed.
	grad  linalg.Vector // ∇f(x)
	hdiag linalg.Vector // diagonal of ∇²f(x)
	dir   linalg.Vector // Δx
	rhs   linalg.Vector // Newton right-hand side; r_d at the stopping test
	slack linalg.Vector // s
	lam   linalg.Vector // λ
	ds    linalg.Vector // Δs (predictor, then corrector); A·Δx mid-solve
	dlam  linalg.Vector // Δλ (predictor, then corrector)
	v     linalg.Vector // per-row right-hand side c + w∘r_p (c = 0 in the predictor)
	rp    linalg.Vector // r_p
	// cut records that the previous step-back cut its step below half,
	// which floors the next centering weight.
	cut bool
}

// CompileSparse runs the one-time structural work for the constraint
// system A·x ≤ b with n variables: Newton-matrix pattern, fill-reducing
// ordering, symbolic factorization, and scatter maps. a must be non-nil;
// Minimize rejects a program without constraint rows. Only opts.Ordering
// participates.
func CompileSparse(a *linalg.CSR, n int, opts Options) *SparseProgram {
	pr := &SparseProgram{a: a, n: n, m: a.Rows}
	sb := linalg.NewSymBuilder(n)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			for q := p; q < a.RowPtr[i+1]; q++ {
				sb.Add(a.Col[p], a.Col[q])
			}
		}
	}
	pr.sym = sb.CompileProgram(linalg.CompileOptions{Ordering: opts.Ordering})

	pr.pairPtr = make([]int, a.Rows+1)
	for i := 0; i < a.Rows; i++ {
		nz := a.RowPtr[i+1] - a.RowPtr[i]
		pr.pairPtr[i+1] = pr.pairPtr[i] + nz*(nz+1)/2
	}
	pr.pairSlot = make([]int32, pr.pairPtr[a.Rows])
	pr.pairProd = make([]float64, pr.pairPtr[a.Rows])
	k := 0
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			for q := p; q < a.RowPtr[i+1]; q++ {
				pr.pairSlot[k] = int32(pr.sym.Slot(a.Col[p], a.Col[q]))
				pr.pairProd[k] = a.Val[p] * a.Val[q]
				k++
			}
		}
	}
	pr.diagSlot = make([]int32, n)
	for j := 0; j < n; j++ {
		pr.diagSlot[j] = int32(pr.sym.Slot(j, j))
	}
	return pr
}

// newWorkspace mints one solve's workspace: a numeric factor from the
// shared symbolic program and the iteration vectors.
func (pr *SparseProgram) newWorkspace() *sparseSolver {
	n, m := pr.n, pr.m
	s := &sparseSolver{
		a:        pr.a,
		n:        n,
		m:        m,
		h:        pr.sym.NewFactor(),
		pairPtr:  pr.pairPtr,
		pairSlot: pr.pairSlot,
		pairProd: pr.pairProd,
		diagSlot: pr.diagSlot,
	}
	s.grad = linalg.NewVector(n)
	s.hdiag = linalg.NewVector(n)
	s.dir = linalg.NewVector(n)
	s.rhs = linalg.NewVector(n)
	s.slack = linalg.NewVector(m)
	s.lam = linalg.NewVector(m)
	s.ds = linalg.NewVector(m)
	s.dlam = linalg.NewVector(m)
	s.v = linalg.NewVector(m)
	s.rp = linalg.NewVector(m)
	return s
}

// Minimize runs the primal-dual interior point over this compiled program
// with the given objective, right-hand side, and strictly feasible start
// point. The per-solve workspace is borrowed from the program's pool, so
// warm calls skip both the symbolic analysis and the workspace
// allocations. opts.Ordering is ignored here — it was fixed at
// CompileSparse.
func (pr *SparseProgram) Minimize(f DiagObjective, b linalg.Vector, x0 linalg.Vector, opts Options) (*Result, error) {
	if pr.m == 0 || pr.a.Cols != len(x0) || len(b) != pr.m {
		return nil, ErrDimension
	}
	var s *sparseSolver
	if v := pr.pool.Get(); v != nil {
		s = v.(*sparseSolver)
	} else {
		s = pr.newWorkspace()
	}
	s.f, s.b = f, b
	res, err := s.minimize(x0, opts)
	s.f, s.b = nil, nil
	pr.pool.Put(s)
	return res, err
}

// N returns the variable count the program was compiled for.
func (pr *SparseProgram) N() int { return pr.n }

// M returns the constraint count the program was compiled for.
func (pr *SparseProgram) M() int { return pr.m }

// factor assembles H = ∇²f(x) + Aᵀdiag(λ/s)A and factors it.
func (s *sparseSolver) factor(x linalg.Vector) error {
	s.h.ZeroVals()
	s.f.HessianDiag(x, s.hdiag)
	hv := s.h.Val
	for j := 0; j < s.n; j++ {
		hv[s.diagSlot[j]] += s.hdiag[j]
	}
	for i := 0; i < s.m; i++ {
		w := s.lam[i] / s.slack[i]
		for k := s.pairPtr[i]; k < s.pairPtr[i+1]; k++ {
			hv[s.pairSlot[k]] += w * s.pairProd[k]
		}
	}
	if _, err := s.h.Factor(); err != nil {
		return fmt.Errorf("%w: %v", ErrNumerical, err)
	}
	return nil
}

// direction solves the factored Newton system for the per-row right-hand
// side v: H·Δx = −∇f − Aᵀv, then Δs = −r_p − A·Δx and
// Δλ = v − λ + w∘(A·Δx), which is Δλ = c − λ − w∘Δs for v = c + w∘r_p.
func (s *sparseSolver) direction() {
	copy(s.rhs, s.grad)
	s.a.AddMulVecT(s.v, s.rhs)
	s.rhs.Scale(-1)
	s.h.SolveInto(s.rhs, s.dir)
	s.a.MulVec(s.dir, s.ds)
	for i, adx := range s.ds {
		s.dlam[i] = s.v[i] - s.lam[i] + s.lam[i]/s.slack[i]*adx
		s.ds[i] = -s.rp[i] - adx
	}
}

// maxStep returns the largest α ≤ limit that keeps s + α·Δs ≥ 0 and
// λ + α·Δλ ≥ 0.
func (s *sparseSolver) maxStep(limit float64) float64 {
	for i := 0; i < s.m; i++ {
		if d := s.ds[i]; d < 0 && -s.slack[i]/d < limit {
			limit = -s.slack[i] / d
		}
		if d := s.dlam[i]; d < 0 && -s.lam[i]/d < limit {
			limit = -s.lam[i] / d
		}
	}
	return limit
}

// stepGap returns the complementarity products' mean and minimum after a
// step of length alpha.
func (s *sparseSolver) stepGap(alpha float64) (mean, lo float64) {
	lo = math.Inf(1)
	for i := 0; i < s.m; i++ {
		p := (s.slack[i] + alpha*s.ds[i]) * (s.lam[i] + alpha*s.dlam[i])
		mean += p
		if p < lo {
			lo = p
		}
	}
	return mean / float64(s.m), lo
}

// estimateT0 returns the AutoT0 barrier weight at x: the least-squares
// fit of t·∇f(x) + ∇φ(x) ≈ 0, clamped by clampT0. s.slack must already
// hold the (strictly positive) slack at x. Uses s.rhs as scratch.
func (s *sparseSolver) estimateT0(x linalg.Vector, tol float64) float64 {
	s.f.Gradient(x, s.grad)
	for j := 0; j < s.n; j++ {
		s.rhs[j] = 0
	}
	for i := 0; i < s.m; i++ {
		inv := 1 / s.slack[i]
		for p := s.a.RowPtr[i]; p < s.a.RowPtr[i+1]; p++ {
			s.rhs[s.a.Col[p]] += s.a.Val[p] * inv
		}
	}
	num, den := 0.0, 0.0
	for j := 0; j < s.n; j++ {
		num -= s.grad[j] * s.rhs[j]
		den += s.grad[j] * s.grad[j]
	}
	return clampT0(num/den, s.m, tol)
}

// start sets s = b − A·x at the strictly feasible x and centres the
// multipliers at λ = μ₀/s: μ₀ = 1/T0, or min(1, 10/t*) under AutoT0 with
// t* the barrier's centrality estimate, so a warm start near the optimum
// begins with a small gap while a cold one (t* clamped to 1) keeps μ₀ = 1.
func (s *sparseSolver) start(x linalg.Vector, opts Options, tol float64) error {
	s.a.MulVec(x, s.slack)
	for i := range s.slack {
		s.slack[i] = s.b[i] - s.slack[i]
	}
	if lo := s.slack.Min(); lo <= 0 {
		return fmt.Errorf("%w (min slack %g)", ErrInfeasibleStart, lo)
	}
	mu0 := 1.0
	if opts.T0 != 0 {
		mu0 = 1 / opts.T0
	} else if opts.AutoT0 {
		mu0 = math.Min(1, 10/s.estimateT0(x, tol))
	}
	for i := range s.lam {
		s.lam[i] = mu0 / s.slack[i]
	}
	s.cut = false
	return nil
}

// iterate takes one predictor-corrector step from (x, s, λ), or reports
// done when both stopping tests already hold: sᵀλ ≤ tol (or μ at its
// roundoff floor) and ‖r_d‖∞ ≤ tol·(1 + ‖∇f‖∞) (or, with the gap closed,
// r_d below the rounding floor of the next step's dual update). Zero
// allocations.
func (s *sparseSolver) iterate(x linalg.Vector, tol float64) (bool, error) {
	s.a.MulVec(x, s.rp)
	for i := range s.rp {
		s.rp[i] += s.slack[i] - s.b[i]
	}
	s.f.Gradient(x, s.grad)
	copy(s.rhs, s.grad)
	s.a.AddMulVecT(s.lam, s.rhs)
	rd := s.rhs.NormInf()
	gap := s.slack.Dot(s.lam)
	mu := gap / float64(s.m)
	gapMet := gap <= tol || mu <= pdEps*(1+s.lam.NormInf())
	if gapMet && rd <= tol*(1+s.grad.NormInf()) {
		return true, nil
	}
	if err := s.factor(x); err != nil {
		return false, err
	}

	// Predictor: the affine-scaling direction, v = w∘r_p.
	for i := range s.v {
		s.v[i] = s.lam[i] / s.slack[i] * s.rp[i]
	}
	s.direction()
	muAff, _ := s.stepGap(s.maxStep(1))
	sigma := math.Min(1, math.Pow(muAff/mu, 3))
	switch {
	case rd > pdDualLag*mu:
		sigma = 1
	case s.cut:
		sigma = math.Max(sigma, 0.5)
	}

	// Corrector: v = c + w∘r_p with c = (σμ − Δsᵃ∘Δλᵃ)/s.
	for i := range s.v {
		s.v[i] = (sigma*mu - s.ds[i]*s.dlam[i] + s.lam[i]*s.rp[i]) / s.slack[i]
	}
	s.direction()
	if math.IsNaN(sigma) || !s.dir.AllFinite() {
		return false, fmt.Errorf("%w: non-finite primal-dual direction", ErrNumerical)
	}
	if gapMet && rd <= s.dualFloor() {
		return true, nil
	}

	// One step length for x, s and λ, backed off until every sᵢλᵢ stays
	// within pdCentral of the new mean.
	full := pdStepFrac * s.maxStep(1/pdStepFrac)
	alpha := full
	for k := 0; k < 60; k++ {
		if mean, lo := s.stepGap(alpha); lo >= pdCentral*mean {
			break
		}
		alpha *= pdStepBack
	}
	s.cut = alpha < full/2
	x.AddScaled(alpha, s.dir)
	s.slack.AddScaled(alpha, s.ds)
	s.lam.AddScaled(alpha, s.dlam)
	return false, nil
}

// dualFloor bounds what rounding alone adds to the dual residual in the
// step just computed. Its dual update Δλ = v − λ + w∘(A·Δx) carries the
// rounding of A·Δx, about ε·(|A||Δx|)ᵢ in row i, magnified by wᵢ = λᵢ/sᵢ,
// and Aᵀ hands it on to r_d: up to ε·‖|A|ᵀ(w∘(|A||Δx|))‖∞ whatever the
// step's exact value. On degenerate programs — tight rows with zero
// multipliers, which pipelines' tied stage weights produce — the gap
// closes while x still moves by O(√μ) and the active rows' w nears 1/ε,
// so this floor exceeds the tolerance and further steps only trade one
// rounding error for another. Uses s.v and s.rhs as scratch.
func (s *sparseSolver) dualFloor() float64 {
	a := s.a
	for i := 0; i < s.m; i++ {
		sum := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			sum += math.Abs(a.Val[p] * s.dir[a.Col[p]])
		}
		s.v[i] = s.lam[i] / s.slack[i] * sum
	}
	for j := range s.rhs {
		s.rhs[j] = 0
	}
	for i := 0; i < s.m; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s.rhs[a.Col[p]] += math.Abs(a.Val[p]) * s.v[i]
		}
	}
	return pdEps * s.rhs.NormInf()
}

// minimize runs the primal-dual interior point from the strictly feasible
// x0, reusing every compiled structure and workspace.
func (s *sparseSolver) minimize(x0 linalg.Vector, opts Options) (*Result, error) {
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-9
	}
	x := x0.Clone()
	if err := s.start(x, opts, tol); err != nil {
		return nil, err
	}
	res := &Result{}
	for ; res.Newton < pdMaxIter; res.Newton++ {
		done, err := s.iterate(x, tol/pdTolScale)
		if err != nil {
			return nil, err
		}
		if done {
			res.X = x
			res.Value = s.f.Value(x)
			res.GapBound = s.slack.Dot(s.lam)
			res.Lambda = s.lam.Clone()
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: no convergence in %d primal-dual iterations", ErrNumerical, pdMaxIter)
}

// SparseMinimize runs the primal-dual interior point on the sparse
// constraint system A·x ≤ b from the strictly feasible point x0. Setup
// compiles the Newton-matrix pattern, a fill-reducing ordering, and the
// symbolic factorization once, after which every iteration runs
// allocation-free. a must have at least one row (ErrDimension
// otherwise). Concurrent SparseMinimize calls are independent.
func SparseMinimize(f DiagObjective, a *linalg.CSR, b linalg.Vector, x0 linalg.Vector, opts Options) (*Result, error) {
	n := len(x0)
	if a == nil || a.Rows == 0 || a.Cols != n || len(b) != a.Rows {
		return nil, ErrDimension
	}
	return CompileSparse(a, n, opts).Minimize(f, b, x0, opts)
}
