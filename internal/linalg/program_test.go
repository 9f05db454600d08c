package linalg

import (
	"math"
	"math/rand"
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
