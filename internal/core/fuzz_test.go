package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/convex"
	"repro/internal/graph"
	"repro/internal/model"
)

// fuzzInstance decodes a FuzzSolveNumeric input: 2–14 tasks whose
// weights 10^k (k in −6..6) cycle through weightExps, forward edges from
// consecutive byte pairs of edgeBytes, smax ∈ {1, 2, +Inf}, and a
// deadline whose excess over the minimum is log-uniform in [1e-9, 2]
// (the minimum at speed 1 when smax is +Inf, where any deadline is
// feasible).
func fuzzInstance(n uint8, weightExps, edgeBytes []byte, smaxSel uint8, slack uint16) (*graph.Graph, float64, float64) {
	size := 2 + int(n%13)
	g := graph.New()
	for i := 0; i < size; i++ {
		k := 0
		if len(weightExps) > 0 {
			k = int(weightExps[i%len(weightExps)]%13) - 6
		}
		g.AddTask("", math.Pow(10, float64(k)))
	}
	for i := 0; i+1 < len(edgeBytes); i += 2 {
		u, v := int(edgeBytes[i])%size, int(edgeBytes[i+1])%size
		if u > v {
			u, v = v, u
		}
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	smax := []float64{1, 2, math.Inf(1)}[smaxSel%3]
	cpw, _ := g.CriticalPathWeight() // forward edges: always a DAG
	dmin := cpw
	if !math.IsInf(smax, 1) {
		dmin = cpw / smax
	}
	excess := 1e-9 * math.Pow(2e9, float64(slack)/math.MaxUint16)
	return g, smax, dmin * (1 + excess)
}

// FuzzSolveNumeric drives the interior point with adversarial numerics:
// weights spanning twelve decades, deadlines from 1e-9 above the minimum,
// and a binding or infinite speed cap. Every answer must verify at 1e-9
// with a finite energy and a certificate 0 ≤ LowerBound ≤ E·(1+1e-9);
// every failure must be a classified error (ErrInfeasible or
// convex.ErrNumerical), never a panic, an unclassified error or NaN.
func FuzzSolveNumeric(f *testing.F) {
	// The cold start once rounded out of the interior here: precedence
	// rows opened by (ν−1)·d_v ≈ 2e-10 × 5e-8 next to completion times
	// near 1.
	f.Add(uint8(9), []byte{0, 7, 5}, []byte{
		0, 1, 0, 3, 0, 5, 1, 2, 1, 4, 1, 6, 2, 3, 2, 7, 3, 4, 3, 8,
		4, 5, 4, 9, 5, 6, 5, 10, 6, 7, 7, 8, 7, 10, 8, 9, 8, 10, 9, 10,
	}, uint8(0), uint16(0))
	// Weights 1e6 put finish times near 3e6, where a start computed as
	// finish − duration landed 1.4e-9 before its predecessor's finish.
	f.Add(uint8(10), []byte("Z"), []byte("2001070c1A0812280BB70987A0B2"), uint8(42), uint16(65480))
	f.Add(uint8(12), []byte{0, 12, 3, 9}, []byte{0, 13, 1, 7, 2, 9, 5, 11, 3, 4}, uint8(2), uint16(65535))
	f.Fuzz(func(t *testing.T, n uint8, weightExps, edgeBytes []byte, smaxSel uint8, slack uint16) {
		g, smax, deadline := fuzzInstance(n, weightExps, edgeBytes, smaxSel, slack)
		p, err := NewProblem(g, deadline)
		if err != nil {
			t.Fatalf("problem: %v", err)
		}
		sol, err := p.SolveContinuousNumeric(smax, ContinuousOptions{})
		if err != nil {
			if !errors.Is(err, ErrInfeasible) && !errors.Is(err, convex.ErrNumerical) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if math.IsNaN(sol.Energy) || math.IsInf(sol.Energy, 0) {
			t.Fatalf("energy %v", sol.Energy)
		}
		if err := p.Verify(sol, 1e-9); err != nil {
			t.Fatalf("verify: %v", err)
		}
		if lb := sol.Stats.LowerBound; !(lb >= 0) || lb > sol.Energy*(1+1e-9) {
			t.Fatalf("lower bound %.17g against energy %.17g", lb, sol.Energy)
		}
	})
}

// FuzzDiscreteSP checks the Pareto DP's frontier recursion against the
// full-product oracle (compareDiscreteSP: matched errors, Verify at 1e-9,
// energies within 1e-12, no higher frontier peak) on graph.RandomSP
// shapes of 1–16 tasks, uniform, constant or near-constant weights, one
// of the discreteLadders, a deadline whose excess over the minimum is
// log-uniform in [1e-9, 3], cold or warm from the oracle's optimum.
func FuzzDiscreteSP(f *testing.F) {
	f.Add(int64(1), uint8(11), uint8(0), uint8(0), uint16(40000), false)
	f.Add(int64(2), uint8(15), uint8(1), uint8(3), uint16(0), true)
	f.Add(int64(3), uint8(8), uint8(2), uint8(2), uint16(65535), false)
	f.Fuzz(func(t *testing.T, seed int64, n, wsel, lsel uint8, slack uint16, warm bool) {
		rng := rand.New(rand.NewSource(seed))
		wf := []graph.WeightFunc{graph.UniformWeights(0.5, 3), graph.ConstantWeights(1), graph.UniformWeights(1, 1+1e-6)}[wsel%3]
		g, _ := graph.RandomSP(rng, 1+int(n%16), wf)
		dm, err := model.NewDiscrete(discreteLadders[int(lsel)%len(discreteLadders)])
		if err != nil {
			t.Fatal(err)
		}
		dmin, _ := g.MinimalDeadline(dm.SMax)
		p, err := NewProblem(g, dmin*(1+1e-9*math.Pow(3e9, float64(slack)/math.MaxUint16)))
		if err != nil {
			t.Fatalf("problem: %v", err)
		}
		_, want := compareDiscreteSP(t, "cold", p, dm, DiscreteOptions{})
		if warm && want != nil {
			ws, _ := want.Speeds()
			compareDiscreteSP(t, "warm", p, dm, DiscreteOptions{Warm: &WarmStart{Speeds: ws}})
		}
	})
}
