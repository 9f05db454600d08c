// Command energyload replays synthetic production traffic against the
// energy-scheduling service and gates the result on throughput, tail
// latency, and error rate.
//
// Storm a live server:
//
//	energyload -target http://localhost:8080 -rate 200 -duration 10s
//
// Or, with no -target, an in-process server (the same handler
// energyserver mounts) — the self-contained smoke mode CI runs:
//
//	energyload -rate 150 -duration 4s -slo-p99 500
//
// Traffic mixes plain solves, streamed solves (POST /v1/solve/stream
// consumed to the terminal event, with the time to the first event
// gated separately via -slo-first-plan-p99), full reclaiming-session
// lifecycles (create → /watch SSE watcher + jittered completion
// events → schedule poll → delete, with a fraction abandoned), and
// batch floods, over a zipf-popular instance pool (see
// internal/loadgen). The arrival schedule is open-loop and
// seeded: latency is measured from each request's intended send time,
// so a stalling server cannot hide its stall by slowing the generator
// down.
//
// The report is energybench/v1 — the same schema energybench writes —
// with throughput_rps, p99/p999, error_rate, and the SLO embedded, so a
// committed baseline gates load results exactly like scenario p50s:
//
//	energyload -rate 150 -duration 4s -out BENCH_load.json
//	energyload -rate 150 -duration 4s -baseline BENCH_load.json -tolerance 2
//
// Exit codes: 0 pass, 1 SLO violation or baseline regression, 2 usage
// or I/O error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/benchkit"
	"repro/internal/loadgen"
	"repro/internal/resilience"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: 0 success, 1 gate failed, 2 usage or
// I/O error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("energyload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target      = fs.String("target", "", "base URL of a running server (empty = in-process server)")
		rate        = fs.Float64("rate", 100, "mean arrival rate in requests per second (open-loop Poisson)")
		duration    = fs.Duration("duration", 5*time.Second, "arrival window of the storm")
		concurrency = fs.Int("concurrency", 16, "worker count (bounds in-flight requests, not arrivals)")
		mixFlag     = fs.String("mix", "solve=5,session=3,stream=1,batch=1", "op-class weights")
		family      = fs.String("family", "layered", "workload family of the instance pool")
		n           = fs.Int("n", 24, "family size parameter")
		instances   = fs.Int("instances", 16, "distinct instances in the pool")
		zipfS       = fs.Float64("zipf-s", 1.2, "zipf popularity exponent over the pool (must exceed 1)")
		seed        = fs.Int64("seed", 1, "master seed: plan, pool, jitter, abandon draws")
		jitterVals  = fs.Float64("jitter-values", 0, "per-arrival value jitter J: weights scale by seeded factors in [1-J,1+J] (deadline rescaled), defeating the instance cache while keeping shapes structure-cache-hot (0 = bit-identical repeats)")
		tenants     = fs.Int("tenants", 0, "spread arrivals over this many tenants with zipf(1.5) popularity (X-Tenant header; 0/1 = single default tenant)")
		fairnessK   = fs.Float64("fairness-k", 8, "fairness gate (with -tenants > 1): fail if any tenant p99 exceeds K× the median tenant p99 (0 = no gate)")
		retries     = fs.Int("retries", 3, "retry budget for shed (429) requests, with Retry-After/exponential backoff")
		chaos       = fs.Bool("chaos", false, "in-process server only: arm moderate fault injection (solver/store/pipeline errors, latency, panics) and assert the server survives; implies retrying 5xx")
		sloP99      = fs.Float64("slo-p99", 0, "SLO: p99 latency bound in ms (0 = unbounded)")
		sloP999     = fs.Float64("slo-p999", 0, "SLO: p999 latency bound in ms (0 = unbounded)")
		sloErrRate  = fs.Float64("slo-error-rate", 0, "SLO: max failed-request fraction (0 = no errors tolerated)")
		sloFirstP99 = fs.Float64("slo-first-plan-p99", 0, "SLO: p99 bound in ms on a stream's first event (0 = unbounded)")
		workers     = fs.Int("workers", 0, "in-process server: engine worker pool (0 = GOMAXPROCS)")
		maxSessions = fs.Int("max-sessions", 0, "in-process server: session capacity (0 = default)")
		out         = fs.String("out", "", "write the energybench/v1 report here")
		baseline    = fs.String("baseline", "", "compare against this report; exit 1 on regression")
		tolerance   = fs.Float64("tolerance", 2, "slowdown factor allowed before a row regresses")
		compareOut  = fs.String("compare-out", "", "write the comparison report JSON here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(stderr, "energyload:", err)
		return 2
	}

	if *chaos && *target != "" {
		fmt.Fprintln(stderr, "energyload: -chaos requires the in-process server (drop -target)")
		return 2
	}

	base := *target
	var eng *service.Engine
	if base == "" {
		eng = service.NewEngine(service.Options{Workers: *workers})
		srv := httptest.NewServer(service.NewHandler(eng, service.HTTPOptions{MaxSessions: *maxSessions}))
		defer srv.Close()
		base = srv.URL
		fmt.Fprintf(stderr, "energyload: storming in-process server at %s\n", base)
	}
	if *chaos {
		// Moderate rates: enough injected failure to prove the recovery
		// paths under real concurrency, low enough that retries converge.
		resilience.Arm(resilience.NewFaults(*seed, map[resilience.Site]resilience.SiteFaults{
			resilience.SiteSolver:   {ErrorRate: 0.02, LatencyRate: 0.05, Latency: 5 * time.Millisecond, PanicRate: 0.01},
			resilience.SiteStore:    {ErrorRate: 0.01},
			resilience.SitePipeline: {ErrorRate: 0.01, LatencyRate: 0.05, Latency: 2 * time.Millisecond, PanicRate: 0.005},
		}))
		defer resilience.Disarm()
		fmt.Fprintln(stderr, "energyload: chaos mode — fault injection armed at every site")
	}

	cfg := loadgen.Config{
		BaseURL:      base,
		Rate:         *rate,
		Duration:     *duration,
		Concurrency:  *concurrency,
		Mix:          mix,
		Family:       *family,
		N:            *n,
		Instances:    *instances,
		ZipfS:        *zipfS,
		Seed:         *seed,
		JitterValues: *jitterVals,
		Tenants:      *tenants,
		FairnessK:    *fairnessK,
		MaxRetries:   *retries,
		RetryOn5xx:   *chaos,
		SLO: &benchkit.SLO{
			MaxP99MS:     *sloP99,
			MaxP999MS:    *sloP999,
			MaxErrorRate: *sloErrRate,
		},
	}
	if *sloFirstP99 > 0 {
		cfg.StreamSLO = &benchkit.SLO{MaxP99MS: *sloFirstP99}
	}
	panicsBefore := resilience.PanicsRecovered()
	res, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "energyload:", err)
		return 2
	}
	printRows(stdout, res)

	fail := false
	if eng != nil {
		// The storm is over: every admission token must drain back out.
		deadline := time.Now().Add(10 * time.Second)
		for eng.Stats().Backlog != 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		st := eng.Stats()
		fmt.Fprintf(stdout, "engine: shed %d, tenant_rejections %d, degraded %d, deadline_shed %d, panics_recovered %d, backlog %d\n",
			st.Shed, st.TenantRejections, st.Degraded, st.DeadlineShed, st.PanicsRecovered, st.Backlog)
		if st.Backlog != 0 {
			fail = true
			fmt.Fprintf(stderr, "energyload: backlog stuck at %d after the storm — admission tokens leaked\n", st.Backlog)
		}
		// Delta, not absolute: the counter is process-global, and an
		// embedding test binary may have armed faults earlier.
		if p := resilience.PanicsRecovered() - panicsBefore; !*chaos && p != 0 {
			// No faults were armed, so every recovered panic is a real bug
			// the recovery barrier papered over.
			fail = true
			fmt.Fprintf(stderr, "energyload: %d panic(s) recovered without fault injection\n", p)
		}
	}

	if *out != "" {
		if err := res.Report().Write(*out); err != nil {
			fmt.Fprintln(stderr, "energyload:", err)
			return 2
		}
		fmt.Fprintf(stderr, "wrote %s (%d rows)\n", *out, len(res.Rows))
	}

	if len(res.Violations) > 0 {
		fail = true
		for _, v := range res.Violations {
			fmt.Fprintf(stderr, "energyload: SLO violation: %s\n", v)
		}
	}
	if *baseline != "" {
		basePrev, err := benchkit.LoadReport(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "energyload:", err)
			return 2
		}
		cmp, err := benchkit.Compare(basePrev, res.Report(), *tolerance, 0)
		if err != nil {
			fmt.Fprintln(stderr, "energyload:", err)
			return 2
		}
		if *compareOut != "" {
			if err := writeJSONFile(*compareOut, cmp); err != nil {
				fmt.Fprintln(stderr, "energyload:", err)
				return 2
			}
		}
		if !cmp.Pass {
			fail = true
			fmt.Fprintf(stderr, "energyload: baseline gate FAILED — %d regression(s), %d missing, %d SLO failure(s) at tolerance %.2g×\n",
				cmp.Regressions, cmp.Missing, cmp.SLOFailures, cmp.Tolerance)
		}
	}
	if fail {
		return 1
	}
	fmt.Fprintf(stderr, "energyload: PASS — %d requests, %d errors, %d shed, %d retries, p99 %.1f ms\n",
		res.Requests, res.Errors, res.Sheds, res.Retries, overallP99(res))
	return 0
}

func overallP99(res *loadgen.RunResult) float64 {
	if row := res.Overall(); row != nil {
		return row.P99MS
	}
	return 0
}

// printRows renders the per-class result table.
func printRows(w io.Writer, res *loadgen.RunResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ROW\tREQS\tERRS\tp50 (ms)\tp99 (ms)\tp999 (ms)\tRPS")
	for _, row := range res.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.1f\n",
			row.Scenario, row.Requests, row.Errors, row.P50MS, row.P99MS, row.P999MS, row.Throughput)
	}
	tw.Flush()
	fmt.Fprintf(w, "wall %.2fs, total energy %.1f, shed %d, retries %d\n", res.Wall.Seconds(), res.Energy, res.Sheds, res.Retries)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
