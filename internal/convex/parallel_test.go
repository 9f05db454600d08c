package convex

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// gridProgram builds a grid-structured program: one variable per cell of
// a g×g grid, pairwise-sum constraints on grid edges (xᵤ + x_v ≤ cap)
// and lower bounds (−xᵢ ≤ −lo), with the energy-shaped objective. The
// Hessian pattern is the grid — the shape nested dissection is built for.
func gridProgram(rng *rand.Rand, g int) (*sepPowerSum, *linalg.CSR, linalg.Vector, linalg.Vector) {
	n := g * g
	w := linalg.NewVector(n)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	cb := linalg.NewCSRBuilder(n)
	var b linalg.Vector
	id := func(r, c int) int { return r*g + c }
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			if r+1 < g {
				cb.Set(id(r, c), 1)
				cb.Set(id(r+1, c), 1)
				cb.EndRow()
				b = append(b, 3)
			}
			if c+1 < g {
				cb.Set(id(r, c), 1)
				cb.Set(id(r, c+1), 1)
				cb.EndRow()
				b = append(b, 3)
			}
		}
	}
	for i := 0; i < n; i++ {
		cb.Set(i, -1)
		cb.EndRow()
		b = append(b, -0.05)
	}
	x0 := linalg.NewVector(n)
	for i := range x0 {
		x0[i] = 0.5
	}
	return &sepPowerSum{w: w}, cb.Build(), b, x0
}

// TestSparseMinimizeParallelDeterministic pins that a solve is the same
// bits however it is run: two solves in parallel on one compiled program
// (each on its own pooled workspace) and a solve on a fresh compile must
// agree in every coordinate, the value and the iteration count.
func TestSparseMinimizeParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f, a, b, x0 := gridProgram(rng, 32)
	prog := CompileSparse(a, len(x0), Options{})
	res := make([]*Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = prog.Minimize(f, b, x0, Options{})
		}(i)
	}
	wg.Wait()
	res[2], errs[2] = SparseMinimize(f, a, b, x0, Options{})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	for _, r := range res[1:] {
		if r.Value != res[0].Value || r.Newton != res[0].Newton {
			t.Fatalf("solves differ: value %.17g vs %.17g, %d vs %d iterations",
				r.Value, res[0].Value, r.Newton, res[0].Newton)
		}
		for i := range r.X {
			if r.X[i] != res[0].X[i] {
				t.Fatalf("x[%d] not bit-reproducible: %.17g vs %.17g", i, r.X[i], res[0].X[i])
			}
		}
	}
}

func TestAutoT0WarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(16)
		f, opt, sa, b, x0 := randomChainProgram(rng, n)
		cold, err := SparseMinimize(f, sa, b, x0, Options{})
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		// Restart from just inside the solution: AutoT0 should detect the
		// near-central point, start at a small gap, and spend fewer
		// iterations while matching the cold optimum.
		// The optimum pushes x up against Σx ≤ D; shrink slightly to step
		// strictly inside.
		warmX := cold.X.Clone()
		for i := range warmX {
			warmX[i] *= 1 - 1e-6
		}
		warm, err := SparseMinimize(f, sa, b, warmX, Options{AutoT0: true})
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if math.Abs(warm.Value-cold.Value) > 1e-7*(1+math.Abs(cold.Value)) {
			t.Fatalf("trial %d: warm value %.15g vs cold %.15g", trial, warm.Value, cold.Value)
		}
		if warm.Newton >= cold.Newton {
			t.Fatalf("trial %d: AutoT0 warm restart took %d iterations, cold took %d",
				trial, warm.Newton, cold.Newton)
		}
		if want := f.Value(opt); math.Abs(warm.Value-want) > 1e-9*want {
			t.Fatalf("trial %d: warm value %.15g, closed form %.15g", trial, warm.Value, want)
		}
	}
}

func TestAutoT0ColdStartUnchanged(t *testing.T) {
	// At a generic cold start the centrality estimate clamps to 1 and the
	// path must be exactly the classical one.
	rng := rand.New(rand.NewSource(41))
	f, _, sa, b, x0 := randomChainProgram(rng, 12)
	plain, err := SparseMinimize(f, sa, b, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := SparseMinimize(f, sa, b, x0, Options{AutoT0: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Value-auto.Value) > 1e-9*(1+math.Abs(plain.Value)) {
		t.Fatalf("AutoT0 cold start diverged: %.15g vs %.15g", auto.Value, plain.Value)
	}
	if auto.GapBound > plain.GapBound*(1+1e-12) {
		t.Fatalf("AutoT0 weakened the gap certificate: %g vs %g", auto.GapBound, plain.GapBound)
	}
}

// TestConcurrentSparseMinimize stresses independent solves on separate
// goroutines. Run with -race in CI; any cross-solver state leak shows up
// as a data race or a wrong optimum.
func TestConcurrentSparseMinimize(t *testing.T) {
	const goroutines = 6
	type job struct {
		f    *sepPowerSum
		a    *linalg.CSR
		b    linalg.Vector
		x0   linalg.Vector
		want float64
	}
	jobs := make([]job, goroutines)
	for g := range jobs {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		f, a, b, x0 := gridProgram(rng, 24)
		ref, err := SparseMinimize(f, a, b, x0, Options{})
		if err != nil {
			t.Fatalf("job %d reference: %v", g, err)
		}
		jobs[g] = job{f: f, a: a, b: b, x0: x0, want: ref.Value}
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	vals := make([]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := SparseMinimize(jobs[g].f, jobs[g].a, jobs[g].b, jobs[g].x0, Options{})
			if err != nil {
				errs[g] = err
				return
			}
			vals[g] = res.Value
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("job %d: %v", g, errs[g])
		}
		if math.Abs(vals[g]-jobs[g].want) > 1e-9*(1+math.Abs(jobs[g].want)) {
			t.Fatalf("job %d: concurrent value %.15g, reference %.15g", g, vals[g], jobs[g].want)
		}
	}
}
