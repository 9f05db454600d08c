// Command perfbench is the repository's benchmark: one command that drives
// the energy service through three workloads, checks every answer against
// an in-process reference, and prints end-to-end metrics (untraced runs)
// or per-layer metrics (traced runs) as one JSON object on its last line.
//
//	go run . --workload serve|sessions|kernel --seed N --seconds S --trace 0|1
//
// perfbench/run.sh builds and runs it from the repository root with every
// Go cache kept inside the checkout. See perfbench/README.md for what each
// workload stresses and what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what one run of a workload is asked to do.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// spansPath receives the traced run's spans (JSON lines); empty skips it.
	spansPath string
	out       io.Writer
}

// report is what a workload run hands back: the counts behind the result
// line, the metrics keyed by their BENCHMARK.json names, and the verbose
// named-metric lines printed above the result.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	out               io.Writer
}

func newReport(out io.Writer) *report {
	return &report{metrics: map[string]metric{}, out: out}
}

// set records a BENCHMARK.json metric and prints it.
func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit, n)
}

// note prints a named metric with its sample count without putting it on
// the result line.
func (r *report) note(name string, v float64, unit string, n int) {
	fmt.Fprintf(r.out, "metric %-40s %14.6g %-6s n=%d\n", name, v, unit, n)
}

func (r *report) census(format string, args ...any) {
	fmt.Fprintf(r.out, "census "+format+"\n", args...)
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

var workloads = map[string]func(config) (*report, error){
	"serve":    runServe,
	"sessions": runSessions,
	"kernel":   runKernel,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: serve, sessions or kernel")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	spans := fs.String("spans", "", "file the traced run's spans are written to (default .bench_build/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have serve, sessions, kernel)", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: stdout}
	if cfg.trace {
		cfg.spansPath = *spans
		if cfg.spansPath == "" {
			cfg.spansPath = ".bench_build/spans-" + *name + ".jsonl"
		}
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d start=%s\n",
		*name, *seed, *seconds, *trace, time.Now().UTC().Format(time.RFC3339))
	rep, err := fn(cfg)
	if err != nil {
		return err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", *name, d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		res.Metrics[d.name] = m
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is BENCHMARK.json's end_to_end list, in its order.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// solverNames are the routed solvers of plan.ComponentPlan.Solver that the
// per-solver metrics are keyed by.
var solverNames = []string{
	"chain-closed-form", "fork-closed-form", "tree-equivalent-weight",
	"sp-equivalent-weight", "continuous-interior-point", "vdd-lp",
	"discrete-sp-dp", "discrete-bb", "incremental-approx",
}

// perLayer is BENCHMARK.json's per_layer list, in its order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.send_lag_p99_ms", "ms"},
		{"bench.trace_overhead_ratio", "ratio"},
		{"service.transport_share", "ratio"},
		{"service.decode_share", "ratio"},
		{"service.encode_share", "ratio"},
		{"service.engine_self_share", "ratio"},
		{"service.store_share", "ratio"},
		{"service.instance_hit_ratio", "ratio"},
		{"service.coalesced_ratio", "ratio"},
		{"service.backlog_max", "count"},
		{"service.shed_ratio", "ratio"},
		{"service.degraded_ratio", "ratio"},
		{"pipeline.stream_self_share", "ratio"},
		{"graph.fingerprint_share", "ratio"},
		{"plan.split_ms", "ms"},
		{"plan.route_ms", "ms"},
		{"plan.merge_ms", "ms"},
		{"plan.structure_hit_ratio", "ratio"},
		{"plan.components_per_request", "count"},
		{"core.solve_ms", "ms"},
	}
	for _, s := range solverNames {
		defs = append(defs, metricDef{"core.solve_share." + s, "ratio"})
	}
	return append(defs, []metricDef{
		{"core.kernel_hit_ratio", "ratio"},
		{"core.mapped_materialized_ratio", "ratio"},
		{"core.mapped_components", "count"},
		{"core.bb_nodes_per_solve", "count"},
		{"core.frontier_peak", "count"},
		{"convex.newton_per_solve", "count"},
		{"convex.ms_per_newton", "ms"},
		{"linalg.symbolic_per_solve", "count"},
		{"linalg.symbolic_ms", "ms"},
		{"lp.pivots_per_solve", "count"},
		{"reclaim.clean_ratio", "ratio"},
		{"reclaim.reuse_ratio", "ratio"},
		{"reclaim.warm_seeded_ratio", "ratio"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_pause_p99_ms", "ms"},
	}...)
}()

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and only the last set-up is measured.
const setupRuns = 3

// timedSetups runs setup setupRuns times and keeps the last environment;
// it returns that environment and the median set-up time in seconds.
func timedSetups[E interface{ close() }](setup func() (E, error)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRuns-1 {
			e.close()
		}
		env = e
	}
	sort.Float64s(times)
	return env, median(times), nil
}
