package linalg

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// sharedPattern compiles one SymProgram over a random sparse SPD pattern
// and returns it with the off-diagonal positions so callers can assemble
// value-distinct instances on the shared structure.
func sharedPattern(rng *rand.Rand, n int, opts CompileOptions) (*SymProgram, [][2]int) {
	b := NewSymBuilder(n)
	var offs [][2]int
	for e := 0; e < 3*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		b.Add(i, j)
		offs = append(offs, [2]int{i, j})
	}
	return b.CompileProgram(opts), offs
}

// assemble fills a borrowed factor (and a dense mirror) with seeded values
// on the shared pattern: diagonally dominant, so the factorization needs
// no boost and the dense SolvePD reference is exact.
func assemble(s *SparseSym, offs [][2]int, n int, seed int64) (*Matrix, Vector) {
	rng := rand.New(rand.NewSource(seed))
	d := NewMatrix(n, n)
	s.ZeroVals()
	for _, p := range offs {
		v := rng.NormFloat64() * 0.1
		s.Val[s.Slot(p[0], p[1])] += v
		d.Add(p[0], p[1], v)
		d.Add(p[1], p[0], v)
	}
	for i := 0; i < n; i++ {
		v := 2 + rng.Float64()
		s.Val[s.Slot(i, i)] += v
		d.Add(i, i, v)
	}
	rhs := NewVector(n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return d, rhs
}

// TestSymProgramConcurrentFactor is the shared-compile race pin: one
// symbolic analysis, many goroutines concurrently borrowing pooled
// factors from it, each assembling different values, factoring, and
// solving. Under -race this proves the program's symbolic slices are
// read-only across factors and the pool hands out disjoint workspaces;
// every goroutine checks its answer against an independent dense solve.
func TestSymProgramConcurrentFactor(t *testing.T) {
	const (
		n          = 80
		goroutines = 16
		iters      = 8
	)
	prog, offs := sharedPattern(rand.New(rand.NewSource(42)), n, CompileOptions{})
	before := SymbolicAnalyses()

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				s := prog.Acquire()
				dense, rhs := assemble(s, offs, n, int64(1+gid*1000+it))
				boost, err := s.Factor()
				if err != nil {
					errc <- err
					return
				}
				if boost != 0 {
					t.Errorf("goroutine %d iter %d: unexpected boost %g", gid, it, boost)
				}
				x := NewVector(n)
				s.SolveInto(rhs, x)
				prog.Release(s)
				want, _, err := SolvePD(dense, rhs)
				if err != nil {
					errc <- err
					return
				}
				for i := range x {
					if math.Abs(x[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
						t.Errorf("goroutine %d iter %d: x[%d] = %g dense %g", gid, it, i, x[i], want[i])
						break
					}
				}
			}
		}(gid)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := SymbolicAnalyses(); got != before {
		t.Fatalf("concurrent factors ran %d extra symbolic analyses, want 0", got-before)
	}
}

// compileOracle is CompileProgram's storage layout built with comparison
// sorts: the pattern ordered by (i, j) and the permuted entries by
// (column, row), both with sort.Slice. It returns the ordering and the
// CSC pattern with its slot maps.
func compileOracle(n int, raw [][2]int, ordering Ordering) (perm, colPtr, rowIdx []int, slots map[uint64]int, diagSlot []int) {
	all := append([][2]int(nil), raw...)
	for k := 0; k < n; k++ {
		all = append(all, [2]int{k, k})
	}
	sort.Slice(all, func(x, y int) bool {
		if all[x][0] != all[y][0] {
			return all[x][0] < all[y][0]
		}
		return all[x][1] < all[y][1]
	})
	var pairs [][2]int
	for _, p := range all {
		if len(pairs) == 0 || pairs[len(pairs)-1] != p {
			pairs = append(pairs, p)
		}
	}
	perm = orderPattern(n, pairs, ordering)
	pinv := make([]int, n)
	for k, old := range perm {
		pinv[old] = k
	}
	type ent struct{ r, c, orig int }
	ents := make([]ent, len(pairs))
	for idx, p := range pairs {
		r, c := pinv[p[0]], pinv[p[1]]
		if r > c {
			r, c = c, r
		}
		ents[idx] = ent{r: r, c: c, orig: idx}
	}
	sort.Slice(ents, func(x, y int) bool {
		if ents[x].c != ents[y].c {
			return ents[x].c < ents[y].c
		}
		return ents[x].r < ents[y].r
	})
	colPtr = make([]int, n+1)
	rowIdx = make([]int, len(ents))
	slots = make(map[uint64]int, len(ents))
	diagSlot = make([]int, n)
	for slot, e := range ents {
		colPtr[e.c+1]++
		rowIdx[slot] = e.r
		p := pairs[e.orig]
		slots[pairKey(p[0], p[1])] = slot
		if p[0] == p[1] {
			diagSlot[p[0]] = slot
		}
	}
	for k := 0; k < n; k++ {
		colPtr[k+1] += colPtr[k]
	}
	return perm, colPtr, rowIdx, slots, diagSlot
}

// TestCompileProgramMatchesSortOracle pins the counting sorts of
// CompileProgram to the comparison-sort layout: on random patterns with
// duplicates, both orders of each pair and every ordering, the
// permutation, the CSC pattern and every slot are identical.
func TestCompileProgramMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := []int{0, 1, 2, 5, 17, 63, 64, 90, 200}[trial%9]
		var raw [][2]int
		if n > 1 {
			for e := rng.Intn(4 * n); e > 0; e-- {
				i, j := rng.Intn(n), rng.Intn(n)
				raw = append(raw, [2]int{i, j})
				if rng.Intn(4) == 0 {
					raw = append(raw, [2]int{j, i}) // duplicate, other orientation
				}
			}
		}
		for _, ordering := range []Ordering{OrderAuto, OrderRCM, OrderND} {
			b := NewSymBuilder(n)
			var oracleRaw [][2]int
			for _, p := range raw {
				b.Add(p[0], p[1])
				oracleRaw = append(oracleRaw, [2]int{min(p[0], p[1]), max(p[0], p[1])})
			}
			prog := b.CompileProgram(CompileOptions{Ordering: ordering})
			perm, colPtr, rowIdx, slots, diagSlot := compileOracle(n, oracleRaw, ordering)
			if !slices.Equal(prog.perm, perm) || !slices.Equal(prog.colPtr, colPtr) ||
				!slices.Equal(prog.rowIdx, rowIdx) || !slices.Equal(prog.diagSlot, diagSlot) ||
				!maps.Equal(prog.slots, slots) {
				t.Fatalf("trial %d (n=%d, ordering %v): compiled layout differs from the sort oracle", trial, n, ordering)
			}
		}
	}
}
