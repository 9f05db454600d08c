package linalg

import (
	"math/rand"
	"testing"
)

// gridPairs returns the pattern of a g×g 5-point grid Laplacian — the
// shape nested dissection is built for.
func gridPairs(g int) (int, [][2]int) {
	n := g * g
	var pairs [][2]int
	id := func(r, c int) int { return r*g + c }
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			if r+1 < g {
				pairs = append(pairs, [2]int{id(r, c), id(r+1, c)})
			}
			if c+1 < g {
				pairs = append(pairs, [2]int{id(r, c), id(r, c+1)})
			}
		}
	}
	return n, pairs
}

// fillSPD writes a diagonally dominant SPD value set into s, identical
// for equal patterns regardless of ordering.
func fillSPD(s *SparseSym, n int, pairs [][2]int) {
	s.ZeroVals()
	deg := make([]int, n)
	for _, p := range pairs {
		s.Val[s.Slot(p[0], p[1])] += -1
		deg[p[0]]++
		deg[p[1]]++
	}
	for k := 0; k < n; k++ {
		s.Val[s.Slot(k, k)] += float64(deg[k]) + 1 + float64(k)*1e-3
	}
}

func compileGrid(t *testing.T, g int, opts CompileOptions) (*SparseSym, int, [][2]int) {
	t.Helper()
	n, pairs := gridPairs(g)
	b := NewSymBuilder(n)
	for _, p := range pairs {
		b.Add(p[0], p[1])
	}
	s := b.CompileOpts(opts)
	fillSPD(s, n, pairs)
	return s, n, pairs
}

func TestNDOrderIsPermutation(t *testing.T) {
	cases := map[string]func() (int, [][2]int){
		"grid": func() (int, [][2]int) { return gridPairs(9) },
		"chain": func() (int, [][2]int) {
			n := 200
			var ps [][2]int
			for i := 1; i < n; i++ {
				ps = append(ps, [2]int{i - 1, i})
			}
			return n, ps
		},
		"disconnected": func() (int, [][2]int) {
			// Three components: a path, a clique, and isolated vertices.
			var ps [][2]int
			for i := 1; i < 40; i++ {
				ps = append(ps, [2]int{i - 1, i})
			}
			for i := 40; i < 50; i++ {
				for j := i + 1; j < 50; j++ {
					ps = append(ps, [2]int{i, j})
				}
			}
			return 60, ps
		},
		"random": func() (int, [][2]int) {
			rng := rand.New(rand.NewSource(7))
			n := 150
			var ps [][2]int
			for e := 0; e < 400; e++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i != j {
					ps = append(ps, [2]int{i, j})
				}
			}
			return n, ps
		},
	}
	for name, mk := range cases {
		n, pairs := mk()
		deg := make([]int, n)
		for _, p := range pairs {
			deg[p[0]]++
			deg[p[1]]++
		}
		adjPtr := make([]int, n+1)
		for k := 0; k < n; k++ {
			adjPtr[k+1] = adjPtr[k] + deg[k]
		}
		adj := make([]int, adjPtr[n])
		next := make([]int, n)
		copy(next, adjPtr[:n])
		for _, p := range pairs {
			adj[next[p[0]]] = p[1]
			next[p[0]]++
			adj[next[p[1]]] = p[0]
			next[p[1]]++
		}
		perm := ndOrder(n, adjPtr, adj, deg)
		if len(perm) != n {
			t.Fatalf("%s: ndOrder returned %d of %d vertices", name, len(perm), n)
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("%s: ndOrder not a permutation (vertex %d)", name, v)
			}
			seen[v] = true
		}
	}
}

func TestOrderingsSolveEquivalent(t *testing.T) {
	rcm, n, pairs := compileGrid(t, 16, CompileOptions{Ordering: OrderRCM})
	nd, _, _ := compileGrid(t, 16, CompileOptions{Ordering: OrderND})
	if _, err := rcm.Factor(); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Factor(); err != nil {
		t.Fatal(err)
	}
	_ = pairs
	rhs := make(Vector, n)
	for i := range rhs {
		rhs[i] = 1 + float64(i%7)
	}
	xr, xn := make(Vector, n), make(Vector, n)
	rcm.SolveInto(rhs, xr)
	nd.SolveInto(rhs, xn)
	for i := range xr {
		if d := xr[i] - xn[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("RCM and ND solutions differ at %d: %v vs %v", i, xr[i], xn[i])
		}
	}
}

func TestAutoOrderingPicksCheaperFill(t *testing.T) {
	n, pairs := gridPairs(16)
	build := func(opts CompileOptions) *SparseSym {
		b := NewSymBuilder(n)
		for _, p := range pairs {
			b.Add(p[0], p[1])
		}
		return b.CompileOpts(opts)
	}
	auto := build(CompileOptions{})
	rcm := build(CompileOptions{Ordering: OrderRCM})
	nd := build(CompileOptions{Ordering: OrderND})
	min := rcm.FactorNNZ()
	if nd.FactorNNZ() < min {
		min = nd.FactorNNZ()
	}
	if auto.FactorNNZ() != min {
		t.Fatalf("auto ordering fill %d; candidates rcm=%d nd=%d",
			auto.FactorNNZ(), rcm.FactorNNZ(), nd.FactorNNZ())
	}
}
