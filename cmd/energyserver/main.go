// Command energyserver serves MinEnergy(G, D) over HTTP: JSON solve
// requests against the four energy models of the paper, dispatched across a
// bounded worker pool and fronted by an LRU instance cache.
//
// Endpoints:
//
//	POST   /v1/solve                 one instance  {graph, mapping?, deadline, model, …}
//	POST   /v1/solve/stream          the same instance as SSE: plan* → component* → result|error
//	POST   /v1/solve/batch           {"requests":[…]} → per-request results and errors
//	POST   /v1/plan                  explain-only: the planner's routing, no solve
//	POST   /v1/sessions              solve + open an online reclaiming session
//	POST   /v1/sessions/{id}/events  apply completion events; per-event outcomes
//	GET    /v1/sessions/{id}/watch   SSE: re-solved residuals pushed as replans finish
//	GET    /v1/sessions/{id}/schedule  merged execution state (one-shot; /watch replaces polling)
//	GET    /v1/sessions              list sessions (+count) · DELETE /v1/sessions/{id} closes one
//	GET    /v1/stats                 engine + session counters (hits, misses, coalesced, solves…)
//	GET    /healthz                  liveness and engine statistics
//
// Usage:
//
//	energyserver [-addr :8080] [-workers N] [-cache 1024] [-timeout 30s] [-verify]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("energyserver", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max solves in flight (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 1024, "instance cache capacity (negative disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request timeout")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "cap on requested timeouts")
	verify := fs.Bool("verify", false, "independently re-verify every fresh solution")
	maxBacklog := fs.Int("max-backlog", 0, "admission gate: max queued-plus-running solves across all tenants (0 = default 256, negative = unbounded)")
	degradeWatermark := fs.Float64("degrade-watermark", 0, "queue-depth fraction of max-backlog past which solves reroute to the bounded degraded heuristic (0 = default 0.75, negative disables)")
	tenantWeights := fs.String("tenant-weights", "", `weighted fair shares of the admission gate, "gold=3,bronze=1" (unlisted tenants weigh 1)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		return err
	}

	opts := service.Options{
		Workers:          *workers,
		CacheSize:        *cacheSize,
		MaxBacklog:       *maxBacklog,
		DegradeWatermark: *degradeWatermark,
		TenantWeights:    weights,
	}
	if *verify {
		opts.VerifyTol = 1e-6
	}
	engine := service.NewEngine(opts)
	// Normalize the timeout flags exactly as the handler will (a zero or
	// negative -max-timeout falls back to the handler's default), so the
	// server timeouts below are derived from the cap actually enforced.
	httpOpts := service.HTTPOptions{
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	}.Defaults()
	handler := service.NewHandler(engine, httpOpts)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds the whole request read so a dripped body can't
		// hold a connection open forever; WriteTimeout must outlast the
		// largest solve budget (max-timeout) plus response writing. A
		// session watch lives as long as its session: it sets its own
		// per-frame write deadline, and Shutdown ends it.
		ReadTimeout:  time.Minute,
		WriteTimeout: httpOpts.MaxTimeout + time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("energyserver listening on %s (workers=%d cache=%d)",
			*addr, engine.Stats().Workers, *cacheSize)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-sigCh:
		log.Printf("energyserver: %v — draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		st := engine.Stats()
		log.Printf("energyserver: served %d solves (%d cache hits, %d failures)",
			st.Solved, st.Hits, st.Failures)
		return nil
	}
}

// parseTenantWeights reads the flag form "gold=3,bronze=1" into the
// engine's fair-share weight map. Empty input means "every tenant weighs 1".
func parseTenantWeights(s string) (map[string]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tenant-weights entry %q is not tenant=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tenant-weights weight %q must be a positive integer", v)
		}
		out[strings.TrimSpace(k)] = w
	}
	return out, nil
}
