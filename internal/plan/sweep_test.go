package plan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// sweepSizes returns the size parameters the family sweep uses: 6, 12 and
// 24, scaled down for the families whose size parameter grows the graph
// faster than linearly (fft: 2ⁿ points per stage, lu and stencil: n² and
// more blocks) or multiplies it (multi, mixed: n components).
func sweepSizes(family string) []int {
	switch family {
	case "fft":
		return []int{2, 3, 4}
	case "lu", "stencil":
		return []int{3, 4, 5}
	case "multi", "mixed":
		return []int{1, 2, 4}
	}
	return []int{6, 12, 24}
}

// TestFamilySweepConverges runs every registered workload family through
// the planner on the Continuous model over sizes × seeds 1–3 × weights in
// [0.5, 3) and [1, 5) × deadlines 1.02–3× the minimum, plus the
// Incremental model on pipelines. Every solve must converge and verify,
// and every Continuous answer must sit within 1e-9 of the lower bound the
// interior point certifies for the whole instance. Pipelines are the
// hard case: degenerate programs — their tied stage weights leave tight
// precedence rows with zero multipliers — on which the interior point's
// dual residual cannot get below the rounding of its own update.
func TestFamilySweepConverges(t *testing.T) {
	const smax = 2.0
	cont, _ := model.NewContinuous(smax)
	inc, _ := model.NewIncremental(0.5, smax, 0.25)
	weights := [][2]float64{{0.5, 3}, {1, 5}}
	factors := []float64{1.02, 1.2, 1.5, 2, 3}
	for _, family := range workload.Families() {
		for _, n := range sweepSizes(family) {
			for seed := int64(1); seed <= 3; seed++ {
				for _, w := range weights {
					g, err := workload.FromSeed(family, n, seed, w[0], w[1])
					if err != nil {
						t.Fatalf("%s n=%d: %v", family, n, err)
					}
					dmin := feasibleDeadline(t, g, smax, 1)
					for _, f := range factors {
						p := mustProblem(t, g, dmin*f)
						name := func(m model.Model) string {
							return family + "/" + m.Kind.String()
						}
						solve := func(m model.Model) *core.Solution {
							pl, err := Analyze(p, m, Options{})
							if err != nil {
								t.Fatalf("%s n=%d seed=%d w=%v ×%g: analyze: %v", name(m), n, seed, w, f, err)
							}
							sol, err := pl.Execute()
							if err != nil {
								t.Errorf("%s n=%d seed=%d w=%v ×%g: %v", name(m), n, seed, w, f, err)
								return nil
							}
							if err := p.Verify(sol, 1e-6); err != nil {
								t.Errorf("%s n=%d seed=%d w=%v ×%g: verify: %v", name(m), n, seed, w, f, err)
							}
							return sol
						}
						sol := solve(cont)
						if family == "pipeline" && (f == 1.2 || f == 2) {
							solve(inc)
						}
						ref, err := p.SolveContinuousNumeric(smax, core.ContinuousOptions{})
						if err != nil {
							t.Fatalf("%s n=%d seed=%d w=%v ×%g: numeric: %v", family, n, seed, w, f, err)
						}
						if sol == nil || ref.Stats.Algorithm != "continuous-interior-point" {
							continue
						}
						if lb := ref.Stats.LowerBound; !(lb > 0) || lb > sol.Energy*(1+1e-12) || sol.Energy-lb > 1e-9*sol.Energy {
							t.Errorf("%s n=%d seed=%d w=%v ×%g: energy %.15g, certified lower bound %.15g (gap %.3g)",
								family, n, seed, w, f, sol.Energy, lb, (sol.Energy-lb)/sol.Energy)
						}
					}
				}
			}
		}
	}
}
