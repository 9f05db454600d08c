package plan

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// jitterWeights returns a same-structure copy of g with every weight
// scaled by a seeded factor in [0.8, 1.2] — the value-churn traffic the
// structure cache exists to amortize.
func jitterWeights(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	w := make([]float64, g.N())
	for i := range w {
		w[i] = g.Weight(i) * (0.8 + 0.4*rng.Float64())
	}
	return g.CloneWithWeights(w)
}

// cachedSolve routes one instance through Analyze (or AnalyzeResidual
// when rel is non-nil) + Execute, with or without a structure cache.
func cachedSolve(p *core.Problem, m model.Model, sc *StructureCache, rel []float64) (*core.Solution, error) {
	opts := Options{K: 4, Structures: sc}
	var (
		pl  *Plan
		err error
	)
	if rel != nil {
		pl, err = AnalyzeResidual(p, m, opts, Residual{Release: rel})
	} else {
		pl, err = Analyze(p, m, opts)
	}
	if err != nil {
		return nil, err
	}
	return pl.Execute()
}

// TestStructureCachedMatchesCold is the amortization layer's core
// property: solving through a structure cache — cold, value-jittered on
// the now-warm cache, and with release times through AnalyzeResidual —
// must reproduce the cache-free energy within 1e-9 relative, across
// every structure family and all four energy models. The warm leg also
// pins that the jittered repeat actually hits the cache.
func TestStructureCachedMatchesCold(t *testing.T) {
	const relTol = 1e-9
	rng := rand.New(rand.NewSource(20260808))
	modes := []float64{0.5, 1.0, 1.5, 2.0}
	cont, _ := model.NewContinuous(2)
	vdd, _ := model.NewVddHopping(modes)
	disc, _ := model.NewDiscrete(modes)
	inc, _ := model.NewIncremental(0.5, 2, 0.25)
	models := []model.Model{cont, vdd, disc, inc}

	families := []string{"chain", "fork", "tree", "sp", "gnp", "disconnected"}
	for _, family := range families {
		sc := NewStructureCache(64)
		for trial := 0; trial < 3; trial++ {
			g := randomStructured(rng, family)
			if g.N() > 14 {
				continue // keep the exact discrete baseline tractable
			}
			for _, m := range models {
				// Leg 1 — cold: first sight of this structure populates
				// the cache and must already match the cache-free path.
				deadline := feasibleDeadline(t, g, 2, 1.3+rng.Float64())
				p := mustProblem(t, g, deadline)
				got, err := cachedSolve(p, m, sc, nil)
				if err != nil {
					t.Fatalf("%s/%s trial %d cold: %v", family, m.Kind, trial, err)
				}
				want, err := cachedSolve(p, m, nil, nil)
				if err != nil {
					t.Fatalf("%s/%s trial %d cold ref: %v", family, m.Kind, trial, err)
				}
				if diff := math.Abs(got.Energy - want.Energy); diff > relTol*want.Energy {
					t.Fatalf("%s/%s trial %d cold: cached %.12g vs cold %.12g (rel %.3g)",
						family, m.Kind, trial, got.Energy, want.Energy, diff/want.Energy)
				}
				if err := p.Verify(got, 1e-6); err != nil {
					t.Fatalf("%s/%s trial %d cold: cached solution fails verification: %v",
						family, m.Kind, trial, err)
				}

				// Leg 2 — warm: same structure, every weight jittered.
				// The instance is new but the shape is cached; hits must
				// grow and the answer must still match a cache-free solve.
				g2 := jitterWeights(rng, g)
				d2 := feasibleDeadline(t, g2, 2, 1.3+rng.Float64())
				p2 := mustProblem(t, g2, d2)
				hits := sc.Hits()
				got2, err := cachedSolve(p2, m, sc, nil)
				if err != nil {
					t.Fatalf("%s/%s trial %d warm: %v", family, m.Kind, trial, err)
				}
				if sc.Hits() <= hits {
					t.Fatalf("%s/%s trial %d warm: jittered repeat did not hit the structure cache (%d → %d)",
						family, m.Kind, trial, hits, sc.Hits())
				}
				want2, err := cachedSolve(p2, m, nil, nil)
				if err != nil {
					t.Fatalf("%s/%s trial %d warm ref: %v", family, m.Kind, trial, err)
				}
				if diff := math.Abs(got2.Energy - want2.Energy); diff > relTol*want2.Energy {
					t.Fatalf("%s/%s trial %d warm: cached %.12g vs cold %.12g (rel %.3g)",
						family, m.Kind, trial, got2.Energy, want2.Energy, diff/want2.Energy)
				}
				if err := p2.Verify(got2, 1e-6); err != nil {
					t.Fatalf("%s/%s trial %d warm: cached solution fails verification: %v",
						family, m.Kind, trial, err)
				}

				// Leg 3 — release: the residual path (uniform release
				// times, all components dirty) through the same warm
				// cache must match its cache-free twin too.
				dmin, err := g2.MinimalDeadline(2)
				if err != nil {
					t.Fatal(err)
				}
				rel := make([]float64, g2.N())
				for i := range rel {
					rel[i] = 0.3 * (d2 - dmin)
				}
				got3, err := cachedSolve(p2, m, sc, rel)
				if err != nil {
					t.Fatalf("%s/%s trial %d release: %v", family, m.Kind, trial, err)
				}
				want3, err := cachedSolve(p2, m, nil, rel)
				if err != nil {
					t.Fatalf("%s/%s trial %d release ref: %v", family, m.Kind, trial, err)
				}
				if diff := math.Abs(got3.Energy - want3.Energy); diff > relTol*want3.Energy {
					t.Fatalf("%s/%s trial %d release: cached %.12g vs cold %.12g (rel %.3g)",
						family, m.Kind, trial, got3.Energy, want3.Energy, diff/want3.Energy)
				}
			}
		}
	}
}

// TestStructureCacheConcurrentStress hammers one tiny cache from many
// goroutines — concurrent classify on a shared entry set under an
// eviction-pressure capacity of 2 — while every solve is checked against
// its precomputed cache-free energy, and the cache never outgrows its
// capacity. Run under -race this pins the cache's locking discipline and
// the immutability of shared artifacts (the re-clothed weights in
// particular).
func TestStructureCacheConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cont, _ := model.NewContinuous(2)

	type inst struct {
		p    *core.Problem
		want float64
	}
	families := []string{"chain", "fork", "sp", "gnp", "disconnected"}
	insts := make([]inst, 0, len(families))
	for _, family := range families {
		g := randomStructured(rng, family)
		p := mustProblem(t, g, feasibleDeadline(t, g, 2, 1.5))
		ref, err := cachedSolve(p, cont, nil, nil)
		if err != nil {
			t.Fatalf("%s reference: %v", family, err)
		}
		insts = append(insts, inst{p, ref.Energy})
	}

	const capacity = 2 // far below the working set: eviction churn
	sc := NewStructureCache(capacity)
	const (
		goroutines = 8
		iters      = 20
	)
	var wg sync.WaitGroup
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				in := insts[(gid+it)%len(insts)]
				sol, err := cachedSolve(in.p, cont, sc, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if diff := math.Abs(sol.Energy - in.want); diff > 1e-9*in.want {
					t.Errorf("goroutine %d iter %d: cached %.12g vs reference %.12g",
						gid, it, sol.Energy, in.want)
					return
				}
			}
		}(gid)
	}
	wg.Wait()
	if sc.Len() > capacity {
		t.Fatalf("cache len %d exceeds its capacity %d", sc.Len(), capacity)
	}
	if sc.Hits() == 0 {
		t.Fatal("stress run never hit the cache")
	}
}
