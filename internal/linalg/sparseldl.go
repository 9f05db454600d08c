package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// ErrNotPositiveDefinite is returned by Factor when the matrix is not
// (numerically) positive definite even after the diagonal boost.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// SparseSym is a symmetric positive definite matrix with a fixed sparsity
// pattern, built once and refactored many times: the shape of the Newton
// matrices ∇²f + Aᵀdiag(λ/s)A of the interior point, whose pattern is the
// execution graph and never changes across iterations. Construction (via
// SymBuilder.Compile or CompileOpts) chooses a fill-reducing ordering —
// reverse Cuthill–McKee or nested dissection, see order.go — and performs
// the symbolic LDLᵀ analysis — elimination tree and column counts —
// exactly once; every later Factor reuses the symbolic data and
// preallocated workspaces, so refactoring and solving allocate nothing.
//
// Values live in Val, addressed by the slots Slot returns; assembly is
//
//	h.ZeroVals()
//	h.Val[slot] += coefficient
//	boost, err := h.Factor()
//	h.SolveInto(rhs, x)
type SparseSym struct {
	n    int
	perm []int // perm[new] = old
	pinv []int // pinv[old] = new

	// Upper triangle of the permuted matrix in compressed-column form.
	// colPtr and rowIdx are shared with the owning SymProgram and are
	// read-only during Factor/Solve; Val is this factor's own numeric
	// storage.
	colPtr []int
	rowIdx []int
	Val    []float64

	slots    map[uint64]int // canonical (min,max) original pair -> Val index
	diagSlot []int          // Val index of each diagonal entry, original order

	// Symbolic factorization (shared with the SymProgram, read-only).
	parent []int
	lnz    []int // column counts of L
	lp     []int // len n+1, column pointers of L

	// Numeric factor PHPᵀ = L·D·Lᵀ.
	li []int
	lx []float64
	d  []float64

	// Workspaces reused by Factor and SolveInto.
	y        []float64
	pat      []int
	flag     []int
	lnzw     []int
	w        []float64
	factored bool
}

// SymProgram is the immutable outcome of one symbolic compilation: the
// fill-reducing ordering, the permuted pattern, the elimination tree and
// column counts, and the slot maps. It is safe for concurrent use: N
// goroutines can each hold their own SparseSym factor minted by NewFactor
// against one shared program, because every shared slice is read-only
// after compilation — only the per-factor numeric state (values, factor
// storage, scratch vectors) is mutated by Factor/SolveInto.
//
// This is the unit that structure-keyed caches store: two problems with
// the same sparsity pattern share one SymProgram and skip the ordering
// and symbolic analysis entirely, paying only the numeric factorization.
type SymProgram struct {
	n    int
	perm []int
	pinv []int

	colPtr []int
	rowIdx []int

	slots    map[uint64]int
	diagSlot []int

	parent []int
	lnz    []int
	lp     []int
}

// symbolicAnalyses counts completed symbolic compilations process-wide.
// Tests pin the structure-hit path on this: a solve that reuses a cached
// SymProgram must not move the counter.
var symbolicAnalyses atomic.Uint64

// SymbolicAnalyses returns the number of symbolic compilations (ordering
// selection + elimination-tree analysis) performed by this process. The
// counter moves once per CompileProgram/CompileOpts, never on NewFactor,
// Factor, or SolveInto — so a cache layer can assert that warm solves are
// symbolic-free.
func SymbolicAnalyses() uint64 { return symbolicAnalyses.Load() }

// SymBuilder collects the nonzero pattern of an n×n symmetric matrix.
// Positions are unordered pairs; duplicates are fine. Every diagonal
// entry is included automatically (the interior point's Newton matrix always
// has a full diagonal, and diagonal slots are what Factor boosts on near-singular
// systems).
type SymBuilder struct {
	n     int
	pairs [][2]int
}

// NewSymBuilder starts a pattern for an n×n symmetric matrix.
func NewSymBuilder(n int) *SymBuilder {
	if n < 0 {
		panic(fmt.Sprintf("linalg: NewSymBuilder negative dimension %d", n))
	}
	return &SymBuilder{n: n}
}

// Add records position (i, j) (and, by symmetry, (j, i)).
func (b *SymBuilder) Add(i, j int) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("linalg: SymBuilder.Add (%d,%d) out of range [0,%d)", i, j, b.n))
	}
	if i > j {
		i, j = j, i
	}
	b.pairs = append(b.pairs, [2]int{i, j})
}

// CompileOptions tunes CompileOpts: which fill-reducing ordering to
// apply.
type CompileOptions struct {
	// Ordering selects RCM, nested dissection, or automatic selection
	// (the cheaper symbolic factor by FactorNNZ).
	Ordering Ordering
}

// Compile fixes the pattern with the default options: automatic ordering
// selection. The builder must not be reused.
func (b *SymBuilder) Compile() *SparseSym {
	return b.CompileOpts(CompileOptions{})
}

// CompileOpts fixes the pattern: dedupe, fill-reducing ordering, the
// permuted upper-triangular storage, and the symbolic LDLᵀ analysis.
// The builder must not be reused.
func (b *SymBuilder) CompileOpts(opts CompileOptions) *SparseSym {
	return b.CompileProgram(opts).NewFactor()
}

// CompileProgram runs the one-time structural work — dedupe, ordering,
// symbolic LDLᵀ — and returns it as a shareable SymProgram without
// allocating any numeric storage. The builder must not be reused.
// Factors are minted with NewFactor.
func (b *SymBuilder) CompileProgram(opts CompileOptions) *SymProgram {
	n := b.n
	for k := 0; k < n; k++ {
		b.pairs = append(b.pairs, [2]int{k, k})
	}
	// Sorted by (i, j): by j, then stably by i.
	tmp := make([][2]int, len(b.pairs))
	countingSort(tmp, b.pairs, n, 1)
	countingSort(b.pairs, tmp, n, 0)
	pairs := b.pairs[:0]
	for _, p := range b.pairs {
		if len(pairs) == 0 || pairs[len(pairs)-1] != p {
			pairs = append(pairs, p)
		}
	}
	prog := buildProgram(n, pairs, orderPattern(n, pairs, opts.Ordering))
	symbolicAnalyses.Add(1)
	return prog
}

// countingSort copies src into dst ordered by p[key] ∈ [0, n), stably:
// two passes (by the second key, then by the first) order a pattern
// lexicographically in O(len(src) + n).
func countingSort(dst, src [][2]int, n, key int) {
	next := make([]int, n+1)
	for _, p := range src {
		next[p[key]+1]++
	}
	for k := 0; k < n; k++ {
		next[k+1] += next[k]
	}
	for _, p := range src {
		dst[next[p[key]]] = p
		next[p[key]]++
	}
}

// orderPattern returns the fill-reducing ordering (perm[new] = old) of a
// deduped pattern, from its off-diagonal adjacency.
func orderPattern(n int, pairs [][2]int, ordering Ordering) []int {
	deg := make([]int, n)
	for _, p := range pairs {
		if p[0] != p[1] {
			deg[p[0]]++
			deg[p[1]]++
		}
	}
	adjPtr := make([]int, n+1)
	for k := 0; k < n; k++ {
		adjPtr[k+1] = adjPtr[k] + deg[k]
	}
	adj := make([]int, adjPtr[n])
	fill := make([]int, n)
	copy(fill, adjPtr[:n])
	for _, p := range pairs {
		if p[0] != p[1] {
			adj[fill[p[0]]] = p[1]
			fill[p[0]]++
			adj[fill[p[1]]] = p[0]
			fill[p[1]]++
		}
	}
	switch ordering {
	case OrderRCM:
		return rcmOrder(n, adjPtr, adj, deg)
	case OrderND:
		return ndOrder(n, adjPtr, adj, deg)
	}
	// OrderAuto: build both candidates, keep the cheaper factor.
	perm := rcmOrder(n, adjPtr, adj, deg)
	if n >= ndMinDim {
		nd := ndOrder(n, adjPtr, adj, deg)
		if symbolicFill(n, pairs, nd) <= symbolicFill(n, pairs, perm) {
			perm = nd
		}
	}
	return perm
}

// NewFactor mints a fresh numeric factor bound to the program: it aliases
// every read-only symbolic slice and allocates only the per-factor state
// (values, L storage, scratch). Factors from one program are independent
// — concurrent Factor/SolveInto on different factors is safe.
func (p *SymProgram) NewFactor() *SparseSym {
	n := p.n
	s := &SparseSym{
		n:        n,
		perm:     p.perm,
		pinv:     p.pinv,
		colPtr:   p.colPtr,
		rowIdx:   p.rowIdx,
		Val:      make([]float64, len(p.rowIdx)),
		slots:    p.slots,
		diagSlot: p.diagSlot,
		parent:   p.parent,
		lnz:      p.lnz,
		lp:       p.lp,
		li:       make([]int, p.lp[n]),
		lx:       make([]float64, p.lp[n]),
		d:        make([]float64, n),
		y:        make([]float64, n),
		pat:      make([]int, n),
		flag:     make([]int, n),
		lnzw:     make([]int, n),
		w:        make([]float64, n),
	}
	for i := range s.flag {
		s.flag[i] = -1
	}
	return s
}

// N returns the dimension.
func (p *SymProgram) N() int { return p.n }

// NNZ returns the stored entry count of the (upper triangular) pattern.
func (p *SymProgram) NNZ() int { return len(p.rowIdx) }

// FactorNNZ returns the entry count of the factor L (fill included).
func (p *SymProgram) FactorNNZ() int { return p.lp[p.n] }

// Slot returns the Val index of position (i, j) in this program's
// factors, or -1 when the position is not in the compiled pattern.
func (p *SymProgram) Slot(i, j int) int {
	if slot, ok := p.slots[pairKey(i, j)]; ok {
		return slot
	}
	return -1
}

// symbolicFill returns the factor entry count (FactorNNZ) the given
// ordering would produce, via the etree column-count analysis on the
// permuted pattern — no numeric storage is allocated.
func symbolicFill(n int, pairs [][2]int, perm []int) int {
	pinv := make([]int, n)
	for k, old := range perm {
		pinv[old] = k
	}
	colPtr := make([]int, n+1)
	for _, p := range pairs {
		c := pinv[p[0]]
		if r := pinv[p[1]]; r > c {
			c = r
		}
		colPtr[c+1]++
	}
	for k := 0; k < n; k++ {
		colPtr[k+1] += colPtr[k]
	}
	rowIdx := make([]int, colPtr[n])
	next := make([]int, n)
	copy(next, colPtr[:n])
	for _, p := range pairs {
		r, c := pinv[p[0]], pinv[p[1]]
		if r > c {
			r, c = c, r
		}
		rowIdx[next[c]] = r
		next[c]++
	}
	parent := make([]int, n)
	flag := make([]int, n)
	total := 0
	for k := 0; k < n; k++ {
		parent[k] = -1
		flag[k] = k
		for p := colPtr[k]; p < colPtr[k+1]; p++ {
			for i := rowIdx[p]; flag[i] != k; i = parent[i] {
				if parent[i] == -1 {
					parent[i] = k
				}
				total++
				flag[i] = k
			}
		}
	}
	return total
}

// buildProgram constructs the SymProgram for a fixed deduped pattern and
// ordering: permuted storage layout, slot maps, and symbolic analysis.
// No numeric storage is allocated.
func buildProgram(n int, pairs [][2]int, perm []int) *SymProgram {
	pinv := make([]int, n)
	for k, old := range perm {
		pinv[old] = k
	}

	s := &SymProgram{
		n:        n,
		perm:     perm,
		pinv:     pinv,
		slots:    make(map[uint64]int, len(pairs)),
		diagSlot: make([]int, n),
	}

	// Permuted upper-triangular CSC: entry (i,j) lands in column
	// max(pinv[i],pinv[j]) at row min(pinv[i],pinv[j]). The (row, column)
	// pairs are distinct, so sorting them by column, then row, fixes the
	// slots: by row, then stably by column.
	ents := make([][2]int, len(pairs))
	for idx, p := range pairs {
		r, c := pinv[p[0]], pinv[p[1]]
		ents[idx] = [2]int{min(r, c), max(r, c)}
	}
	byRow := make([][2]int, len(ents))
	countingSort(byRow, ents, n, 0)
	countingSort(ents, byRow, n, 1)
	s.colPtr = make([]int, n+1)
	s.rowIdx = make([]int, len(ents))
	for slot, e := range ents {
		s.colPtr[e[1]+1]++
		s.rowIdx[slot] = e[0]
		s.slots[pairKey(perm[e[0]], perm[e[1]])] = slot
		if e[0] == e[1] {
			s.diagSlot[perm[e[0]]] = slot
		}
	}
	for k := 0; k < n; k++ {
		s.colPtr[k+1] += s.colPtr[k]
	}

	// Symbolic LDLᵀ: elimination tree and column counts of L, by the
	// up-looking row traversal (Davis, "Algorithm 849: LDL").
	s.parent = make([]int, n)
	s.lnz = make([]int, n)
	flag := make([]int, n)
	for k := 0; k < n; k++ {
		s.parent[k] = -1
		flag[k] = k
		for p := s.colPtr[k]; p < s.colPtr[k+1]; p++ {
			for i := s.rowIdx[p]; flag[i] != k; i = s.parent[i] {
				if s.parent[i] == -1 {
					s.parent[i] = k
				}
				s.lnz[i]++
				flag[i] = k
			}
		}
	}
	s.lp = make([]int, n+1)
	for k := 0; k < n; k++ {
		s.lp[k+1] = s.lp[k] + s.lnz[k]
	}
	return s
}

func pairKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(i)<<32 | uint64(j)
}

// N returns the dimension.
func (s *SparseSym) N() int { return s.n }

// NNZ returns the stored entry count of the (upper triangular) pattern.
func (s *SparseSym) NNZ() int { return len(s.Val) }

// FactorNNZ returns the entry count of the factor L (fill included),
// fixed by the symbolic analysis.
func (s *SparseSym) FactorNNZ() int { return s.lp[s.n] }

// Slot returns the Val index of position (i, j), or -1 when the position
// is not in the compiled pattern. Intended for setup-time scatter-map
// construction; the hot loop then indexes Val directly.
func (s *SparseSym) Slot(i, j int) int {
	if slot, ok := s.slots[pairKey(i, j)]; ok {
		return slot
	}
	return -1
}

// ZeroVals clears every stored value, keeping the pattern.
func (s *SparseSym) ZeroVals() {
	for i := range s.Val {
		s.Val[i] = 0
	}
	s.factored = false
}

// processRow runs row k of the up-looking numeric factorization against
// the scratch vectors y, pat and flag (s.y, s.pat and s.flag). It stays
// a function of its own: folded into factorOnce's loop, the same
// operations ran about 20% slower on a 2,048-column pattern. Returns
// false when the pivot is not strictly positive; y is clean on both
// outcomes, so a failed call can retry immediately.
func (s *SparseSym) processRow(k int, y []float64, pat, flag []int) bool {
	n := s.n
	// Scatter column k of the permuted upper triangle into y and
	// compute the nonzero pattern of row k of L as an etree prefix.
	top := n
	flag[k] = k
	s.lnzw[k] = 0
	for p := s.colPtr[k]; p < s.colPtr[k+1]; p++ {
		i := s.rowIdx[p]
		y[i] += s.Val[p]
		ln := 0
		for ; flag[i] != k; i = s.parent[i] {
			pat[ln] = i
			ln++
			flag[i] = k
		}
		for ln > 0 {
			ln--
			top--
			pat[top] = pat[ln]
		}
	}
	s.d[k] = y[k]
	y[k] = 0
	for ; top < n; top++ {
		i := pat[top]
		yi := y[i]
		y[i] = 0
		p2 := s.lp[i] + s.lnzw[i]
		for p := s.lp[i]; p < p2; p++ {
			y[s.li[p]] -= s.lx[p] * yi
		}
		lki := yi / s.d[i]
		s.d[k] -= lki * yi
		s.li[p2] = k
		s.lx[p2] = lki
		s.lnzw[i]++
	}
	// y is already clean here: every pattern entry was zeroed as the
	// loop above consumed it.
	return !(s.d[k] <= 0 || math.IsNaN(s.d[k]))
}

// factorOnce runs the up-looking numeric LDLᵀ on the current values.
// It fails (restoring workspace invariants) when a pivot is not strictly
// positive — the matrix is numerically not positive definite.
func (s *SparseSym) factorOnce() error {
	for k := 0; k < s.n; k++ {
		if !s.processRow(k, s.y, s.pat, s.flag) {
			return ErrNotPositiveDefinite
		}
	}
	return nil
}

// Factor computes PHPᵀ = L·D·Lᵀ for the current values, reusing the
// cached symbolic analysis — zero allocations. When the matrix is not
// (numerically) positive definite it retries with a geometrically
// growing diagonal boost applied in place and then removed, so Val is
// unchanged on return while the factor corresponds to H + boost·I.
// Returns the boost applied (0 in the common path).
func (s *SparseSym) Factor() (float64, error) {
	if err := s.factorOnce(); err == nil {
		s.factored = true
		return 0, nil
	}
	scale := 0.0
	for _, slot := range s.diagSlot {
		if d := math.Abs(s.Val[slot]); d > scale {
			scale = d
		}
	}
	if scale == 0 {
		scale = 1
	}
	boost := scale * 1e-12
	applied := 0.0
	for iter := 0; iter < 40; iter++ {
		delta := boost - applied
		for _, slot := range s.diagSlot {
			s.Val[slot] += delta
		}
		applied = boost
		err := s.factorOnce()
		if err == nil {
			for _, slot := range s.diagSlot {
				s.Val[slot] -= applied
			}
			s.factored = true
			return applied, nil
		}
		boost *= 10
	}
	for _, slot := range s.diagSlot {
		s.Val[slot] -= applied
	}
	return boost, ErrNotPositiveDefinite
}

// SolveInto solves H·x = rhs using the last successful Factor. rhs and x
// may alias. Zero allocations.
func (s *SparseSym) SolveInto(rhs, x Vector) {
	if !s.factored {
		panic("linalg: SparseSym.SolveInto before a successful Factor")
	}
	n := s.n
	if len(rhs) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: SparseSym.SolveInto dimension mismatch %d/%d vs %d", len(rhs), len(x), n))
	}
	for k := 0; k < n; k++ {
		s.w[k] = rhs[s.perm[k]]
	}
	for k := 0; k < n; k++ { // L·w' = w (unit lower, stored by columns)
		wk := s.w[k]
		if wk == 0 {
			continue
		}
		for p := s.lp[k]; p < s.lp[k+1]; p++ {
			s.w[s.li[p]] -= s.lx[p] * wk
		}
	}
	for k := 0; k < n; k++ { // D·w'' = w'
		s.w[k] /= s.d[k]
	}
	for k := n - 1; k >= 0; k-- { // Lᵀ·w''' = w''
		wk := s.w[k]
		for p := s.lp[k]; p < s.lp[k+1]; p++ {
			wk -= s.lx[p] * s.w[s.li[p]]
		}
		s.w[k] = wk
	}
	for k := 0; k < n; k++ {
		x[s.perm[k]] = s.w[k]
	}
}

// rcmOrder computes a reverse Cuthill–McKee ordering of the undirected
// pattern graph: per component, breadth-first from a pseudo-peripheral
// vertex with neighbors visited in increasing-degree order, then the
// whole sequence reversed. Returns perm with perm[new] = old.
func rcmOrder(n int, adjPtr, adj, deg []int) []int {
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	nbuf := make([]int, 0, 16)

	// bfs appends the breadth-first order of start's component to out and
	// returns it plus the last vertex reached (an eccentric vertex).
	bfs := func(start int, mark []bool, out []int) ([]int, int) {
		base := len(out)
		mark[start] = true
		out = append(out, start)
		last := start
		for head := base; head < len(out); head++ {
			v := out[head]
			last = v
			nbuf = nbuf[:0]
			for p := adjPtr[v]; p < adjPtr[v+1]; p++ {
				if u := adj[p]; !mark[u] {
					mark[u] = true
					nbuf = append(nbuf, u)
				}
			}
			sort.Slice(nbuf, func(a, b int) bool { return deg[nbuf[a]] < deg[nbuf[b]] })
			out = append(out, nbuf...)
		}
		return out, last
	}

	scratch := make([]bool, n)
	for v := 0; v < n; v++ {
		if visited[v] {
			continue
		}
		// Pseudo-peripheral start: BFS from v, restart from the farthest
		// vertex found (one refinement level is enough in practice).
		queue = queue[:0]
		var far int
		queue, far = bfs(v, scratch, queue)
		for _, u := range queue {
			scratch[u] = false
		}
		perm, _ = bfs(far, visited, perm)
	}
	// Reverse: RCM is CM read backwards, which flips the fill-heavy
	// envelope to the lower-right corner.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
