package benchkit

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// Options sets the measurement shape. Explicit caller values (the CLI
// flags) win; otherwise a scenario's own Warmup/Reps apply (expensive
// scenarios trim repetitions), then the package defaults.
type Options struct {
	// Warmup runs are discarded (default 1).
	Warmup int
	// Reps measured runs feed the percentiles (default 5).
	Reps int
}

func (o Options) warmup(s Scenario) int {
	switch {
	case o.Warmup > 0:
		return o.Warmup
	case s.Warmup > 0:
		return s.Warmup
	}
	return 1
}

func (o Options) reps(s Scenario) int {
	switch {
	case o.Reps > 0:
		return o.Reps
	case s.Reps > 0:
		return s.Reps
	}
	return 5
}

// Run measures one scenario: build, warm up, then time Reps samples and
// fold them into a Result.
func Run(s Scenario, opts Options) (*Result, error) {
	r, err := s.build()
	if err != nil {
		return nil, err
	}
	defer r.close()

	// sample runs one rep and returns its measured interval: the runner's
	// wall-clock bracket, unless the scenario self-times (repTimed —
	// streaming scenarios stop the clock at a mid-stream event and drain
	// the rest untimed).
	sample := func() (time.Duration, float64, error) {
		if r.repTimed != nil {
			return r.repTimed()
		}
		start := time.Now()
		e, err := r.rep()
		return time.Since(start), e, err
	}

	warmup, reps := opts.warmup(s), opts.reps(s)
	var energy float64
	for i := 0; i < warmup; i++ {
		if _, energy, err = sample(); err != nil {
			return nil, fmt.Errorf("scenario %s (warmup): %w", s.Name, err)
		}
	}
	// Memory accounting brackets the measured repetitions: the malloc
	// counters are cumulative and monotonic, so the delta over the loop
	// divided by reps is the per-operation cost. ReadMemStats itself
	// stays outside every timed sample.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	samples := make([]float64, reps)
	for i := range samples {
		var d time.Duration
		if d, energy, err = sample(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		samples[i] = float64(d) / float64(time.Millisecond)
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(samples)

	res := &Result{
		Scenario: s.Name,
		Family:   s.Family,
		Path:     s.Path,
		Tier:     s.Tier,
		Model:    s.Model.Kind,
		Tasks:    r.tasks,
		Edges:    r.edges,
		Deadline: r.deadline,
		Warmup:   warmup,
		Reps:     reps,
		Energy:   energy,
		MinMS:    samples[0],
		P50MS:    Percentile(samples, 0.50),
		P90MS:    Percentile(samples, 0.90),
		MaxMS:    samples[len(samples)-1],
		MeanMS:   mean(samples),

		AllocsPerOp: (m1.Mallocs - m0.Mallocs) / uint64(reps),
		BytesPerOp:  (m1.TotalAlloc - m0.TotalAlloc) / uint64(reps),

		PeakRSSBytes: peakRSSBytes(),
	}
	if s.Path == PathService {
		res.Clients = s.clients()
		res.Requests = s.requests()
	}
	return res, nil
}

// RunAll measures the scenarios in order, reporting progress through
// logf (nil silences it), and wraps the results in a stamped Report.
func RunAll(scenarios []Scenario, opts Options, logf func(format string, args ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	results := make([]Result, 0, len(scenarios))
	for i, s := range scenarios {
		res, err := Run(s, opts)
		if err != nil {
			return nil, err
		}
		logf("[%d/%d] %-44s p50 %9.3f ms  (%d tasks, %s)", i+1, len(scenarios), s.Name, res.P50MS, res.Tasks, s.Path)
		results = append(results, *res)
	}
	return NewReport(results), nil
}

// Match returns the default-tier registry scenarios whose names contain
// a match of the regular expression pattern (grep semantics — anchor
// with ^…$ to name one scenario exactly), in registry order.
func Match(pattern string) ([]Scenario, error) {
	return Select(pattern, TierDefault, nil)
}

// Select slices the full registry on three axes: a name regexp (grep
// semantics), a tier (TierDefault, TierLarge, or TierAll), and an
// optional family allowlist. It is the selection behind energybench's
// -run/-tier/-families flags; Report.Subset applies the identical
// predicate to a baseline so the regression gate compares exactly the
// slice being run.
func Select(pattern, tier string, families []string) ([]Scenario, error) {
	keep, err := selector(pattern, tier, families)
	if err != nil {
		return nil, err
	}
	var out []Scenario
	for _, s := range FullRegistry() {
		if keep(s.Name, s.tier(), s.Family) {
			out = append(out, s)
		}
	}
	return out, nil
}

// selector compiles the (pattern, tier, families) predicate shared by
// Select and Report.Subset.
func selector(pattern, tier string, families []string) (func(name, tier, family string) bool, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("benchkit: bad scenario pattern: %w", err)
	}
	switch tier {
	case TierDefault, TierLarge, TierHuge, TierAll:
	case "":
		tier = TierDefault
	default:
		return nil, fmt.Errorf("benchkit: unknown tier %q (want %s, %s, %s, or %s)", tier, TierDefault, TierLarge, TierHuge, TierAll)
	}
	var famSet map[string]bool
	if len(families) > 0 {
		famSet = make(map[string]bool, len(families))
		for _, f := range families {
			famSet[f] = true
		}
	}
	return func(name, t, family string) bool {
		if t == "" {
			t = TierDefault
		}
		if tier != TierAll && t != tier {
			return false
		}
		if famSet != nil && !famSet[family] {
			return false
		}
		return re.MatchString(name)
	}, nil
}

// Percentile reads the q-quantile (0 < q ≤ 1) of an ascending slice by
// nearest rank: the smallest sample with at least a q share of the samples
// at or below it, so every reported percentile is a measured sample. It
// is the one percentile definition of energybench/v1: benchkit's
// repetitions and loadgen's request latencies both use it. Zero for an
// empty slice.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
