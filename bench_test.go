package energysched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// One benchmark per table/figure of the experiment suite (listed in the
// internal/exps package doc). Each iteration regenerates the experiment at
// Quick scale; run cmd/experiments for the full-size report.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for _, exp := range Experiments() {
		if exp.ID != id {
			continue
		}
		cfg := ExperimentConfig{Seed: 42, Quick: true}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := exp.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("unknown experiment %q", id)
}

func BenchmarkTable1Fork(b *testing.B)     { benchExperiment(b, "T1") }
func BenchmarkTable2TreeSP(b *testing.B)   { benchExperiment(b, "T2") }
func BenchmarkTable3Vdd(b *testing.B)      { benchExperiment(b, "T3") }
func BenchmarkTable4Hardness(b *testing.B) { benchExperiment(b, "T4") }
func BenchmarkTable5Approx(b *testing.B)   { benchExperiment(b, "T5") }

func BenchmarkFigure1DeadlineSweep(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkFigure2ModeCount(b *testing.B)     { benchExperiment(b, "F2") }
func BenchmarkFigure3DeltaSweep(b *testing.B)    { benchExperiment(b, "F3") }
func BenchmarkFigure4KSweep(b *testing.B)        { benchExperiment(b, "F4") }
func BenchmarkFigure5Scaling(b *testing.B)       { benchExperiment(b, "F5") }

// Ablation benches: the design choices of ablations A1–A4.
func BenchmarkAblationGranularity(b *testing.B) { benchExperiment(b, "A1") }
func BenchmarkAblationAlpha(b *testing.B)       { benchExperiment(b, "A2") }
func BenchmarkAblationMapping(b *testing.B)     { benchExperiment(b, "A3") }
func BenchmarkAblationSwitching(b *testing.B)   { benchExperiment(b, "A4") }

// --- Solver micro-benchmarks ---

// benchProblem builds a list-scheduled random-DAG instance of n tasks on p
// processors with deadline factor 2.
func benchProblem(b *testing.B, n, p int) *Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g := GnpDAG(rng, n, 0.2, UniformWeights(1, 5))
	m, err := ListSchedule(g, p)
	if err != nil {
		b.Fatal(err)
	}
	eg, err := BuildExecutionGraph(g, m)
	if err != nil {
		b.Fatal(err)
	}
	dmin, err := eg.MinimalDeadline(2)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := NewProblem(eg, dmin*2)
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

func BenchmarkContinuousNumeric(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prob := benchProblem(b, n, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prob.SolveContinuousNumeric(2, ContinuousOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSPAlgebra(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			g, expr := RandomSP(rng, n, UniformWeights(1, 5))
			dmin, _ := g.MinimalDeadline(2)
			prob, err := NewProblem(g, dmin*2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prob.SolveSPContinuous(expr, math.Inf(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVddLP(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prob := benchProblem(b, n, 4)
			modes, _ := NewVddHopping([]float64{0.5, 1, 1.5, 2})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prob.SolveVddHopping(modes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDiscreteBB(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prob := benchProblem(b, n, 3)
			m, _ := NewDiscrete([]float64{0.5, 1, 1.5, 2})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prob.SolveDiscreteBB(m, DiscreteOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDiscreteSPPareto(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			g, expr := RandomSP(rng, n, UniformWeights(1, 5))
			dmin, _ := g.MinimalDeadline(2)
			prob, err := NewProblem(g, dmin*1.5)
			if err != nil {
				b.Fatal(err)
			}
			m, _ := NewDiscrete([]float64{0.5, 1, 1.5, 2})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prob.SolveDiscreteSP(m, expr, DiscreteOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDiscreteGreedy(b *testing.B) {
	prob := benchProblem(b, 32, 4)
	m, _ := NewDiscrete([]float64{0.5, 1, 1.5, 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.SolveDiscreteGreedy(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalApprox(b *testing.B) {
	prob := benchProblem(b, 16, 4)
	m, _ := NewIncremental(0.5, 2, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.SolveIncrementalApprox(m, 8, ContinuousOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := GnpDAG(rng, 256, 0.05, UniformWeights(1, 5))
	m, err := ListSchedule(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	durations := make([]float64, g.N())
	for i := range durations {
		durations[i] = g.Weight(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(g, m, durations); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkListSchedule(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := GnpDAG(rng, 256, 0.05, UniformWeights(1, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ListSchedule(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}
