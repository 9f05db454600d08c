package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/resilience"
)

// HTTPOptions tunes the JSON transport around an Engine.
type HTTPOptions struct {
	// DefaultTimeout bounds requests that do not set timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout_ms (default 2m; raised to
	// DefaultTimeout when configured below it, so the cap always covers the
	// budget handed to requests that don't ask for one).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds the number of requests in one batch (default 1024).
	MaxBatch int
	// MaxSessions bounds live reclaiming sessions (default 1024).
	MaxSessions int
	// SessionIdleTTL evicts sessions no request has touched for this long
	// (default 10m) — abandoned executions must not hold capacity forever.
	SessionIdleTTL time.Duration
	// SessionFinishedTTL is the linger granted to finished sessions before
	// the sweep reclaims them (default 30s); under capacity pressure
	// finished sessions are reclaimed immediately.
	SessionFinishedTTL time.Duration
}

// Defaults returns o with every unset or out-of-range field replaced by its
// default. NewHandler applies it internally; callers deriving server
// parameters from these options (e.g. an http.Server WriteTimeout that must
// outlast MaxTimeout) should normalize through it first, so that a flag
// value like -max-timeout 0 yields the cap the handler actually enforces.
func (o HTTPOptions) Defaults() HTTPOptions {
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.MaxTimeout < o.DefaultTimeout {
		// requestContext gives DefaultTimeout to requests without a
		// timeout_ms; the cap must not undercut that budget.
		o.MaxTimeout = o.DefaultTimeout
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 1024
	}
	if o.SessionIdleTTL <= 0 {
		o.SessionIdleTTL = 10 * time.Minute
	}
	if o.SessionFinishedTTL <= 0 {
		o.SessionFinishedTTL = 30 * time.Second
	}
	return o
}

// APIError is the structured error body of every non-2xx response and of
// failed entries inside a batch response.
type APIError struct {
	// Code is a stable, machine-readable classification.
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// RetryAfterMS hints how long to back off before retrying (set on
	// overloaded / tenant_quota rejections, derived from queue depth; the
	// same hint rides the Retry-After header in whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// errorEnvelope wraps APIError at the top level of an error response.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// BatchItemJSON is one entry of a batch response: a response or an error.
type BatchItemJSON struct {
	Response *SolveResponse `json:"response,omitempty"`
	Error    *APIError      `json:"error,omitempty"`
}

// BatchRequestJSON is the wire form of POST /v1/solve/batch.
type BatchRequestJSON struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchResponseJSON is the wire form of a batch answer, in request order.
type BatchResponseJSON struct {
	Results []BatchItemJSON `json:"results"`
}

// PlanResponse is the wire form of POST /v1/plan: the instance summary plus
// the routing the planner would use, without solving anything.
type PlanResponse struct {
	// Tasks and Edges describe the compiled execution graph (after mapping /
	// list-scheduling serialization edges).
	Tasks int `json:"tasks"`
	Edges int `json:"edges"`
	// Deadline echoes the instance deadline.
	Deadline float64 `json:"deadline"`
	// Model names the energy model the plan routes for.
	Model string `json:"model"`
	// Plan is the per-component routing table.
	Plan *PlanJSON `json:"plan"`
	// ElapsedMS is the server-side wall time of the analysis in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// NewHandler wires an Engine behind the service's HTTP surface:
//
//	POST   /v1/solve                  one SolveRequest  → SolveResponse (with its plan)
//	POST   /v1/solve/stream           one SolveRequest  → SSE: plan / component / result events
//	POST   /v1/solve/batch            {"requests":[…]}  → {"results":[…]} (per-entry errors)
//	POST   /v1/plan                   one SolveRequest  → PlanResponse (analyze only, no solve)
//	POST   /v1/sessions               SessionRequest    → SessionResponse (solve + open a reclaiming session)
//	POST   /v1/sessions/{id}/events   {"events":[…]}    → per-event outcomes + energy state
//	GET    /v1/sessions/{id}/schedule merged execution state of the session
//	GET    /v1/sessions/{id}/watch    SSE: schedule / component / event … done|closed as Replan finishes
//	GET    /v1/sessions               live-session listing (+count)
//	DELETE /v1/sessions/{id}          close a session
//	GET    /v1/stats                  engine counters (hits, misses, coalesced, solves…)
//	GET    /healthz                   liveness + engine stats
//
// The two streaming routes share one transport: SSE frames carrying one
// event envelope ({seq, type, data}: StreamEvent), numbered per stream
// from 1.
//
// The handler is httptest-friendly: it holds no global state beyond the
// Engine (plus its session store) and can be mounted under any server.
func NewHandler(e *Engine, opts HTTPOptions) http.Handler {
	opts = opts.Defaults()
	store := NewSessionStore(e, SessionConfig{
		MaxSessions: opts.MaxSessions,
		IdleTTL:     opts.SessionIdleTTL,
		FinishedTTL: opts.SessionFinishedTTL,
	})
	var shutdown serverShutdown
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		var req SolveRequest
		if !decodeJSON(w, r, opts.MaxBodyBytes, &req) {
			return
		}
		ctx, cancel := requestContext(r.Context(), req.TimeoutMS, opts)
		defer cancel()
		resp, err := e.Solve(ctx, &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/solve/stream", func(w http.ResponseWriter, r *http.Request) {
		var req SolveRequest
		if !decodeJSON(w, r, opts.MaxBodyBytes, &req) {
			return
		}
		ctx, cancel := requestContext(r.Context(), req.TimeoutMS, opts)
		defer cancel()
		sse := &sseWriter{w: w}
		em := NewStreamEmitter(sse.send)
		resp, err := e.SolveStream(ctx, &req, em)
		if err != nil {
			// Before the first event the response line is still ours: fail
			// as a plain JSON error. After it, the 200 is committed — the
			// terminal `error` event is the only way to report failure.
			if !sse.Started() {
				writeError(w, err)
				return
			}
			_, apiErr := classify(err)
			_ = em.Emit(EventError, apiErr)
			return
		}
		_ = em.Emit(EventResult, resp)
	})
	mux.HandleFunc("POST /v1/solve/batch", func(w http.ResponseWriter, r *http.Request) {
		var batch BatchRequestJSON
		if !decodeJSON(w, r, opts.MaxBodyBytes, &batch) {
			return
		}
		if len(batch.Requests) == 0 {
			writeError(w, badRequest("batch contains no requests"))
			return
		}
		if len(batch.Requests) > opts.MaxBatch {
			writeError(w, badRequest("batch of %d exceeds the limit of %d", len(batch.Requests), opts.MaxBatch))
			return
		}
		// Each entry gets its own deadline from its own timeout_ms (or the
		// server default): one impatient request must not shrink — and one
		// generous request must not stretch — anyone else's budget.
		reqs := make([]*SolveRequest, len(batch.Requests))
		for i := range batch.Requests {
			reqs[i] = &batch.Requests[i]
		}
		results := e.solveBatch(reqs, func(req *SolveRequest) (context.Context, context.CancelFunc) {
			return requestContext(r.Context(), req.TimeoutMS, opts)
		})
		out := BatchResponseJSON{Results: make([]BatchItemJSON, len(results))}
		for i, res := range results {
			if res.Err != nil {
				_, apiErr := classify(res.Err)
				out.Results[i] = BatchItemJSON{Error: &apiErr}
			} else {
				out.Results[i] = BatchItemJSON{Response: res.Response}
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var req SolveRequest
		if !decodeJSON(w, r, opts.MaxBodyBytes, &req) {
			return
		}
		ctx, cancel := requestContext(r.Context(), req.TimeoutMS, opts)
		defer cancel()
		resp, err := e.Explain(ctx, &req)
		if err != nil {
			writeError(w, err)
			return
		}
		resp.ElapsedMS = msSince(start)
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req SessionRequest
		if !decodeJSON(w, r, opts.MaxBodyBytes, &req) {
			return
		}
		ctx, cancel := requestContext(r.Context(), req.TimeoutMS, opts)
		defer cancel()
		resp, err := store.Create(ctx, &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, resp)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		var req SessionEventsRequest
		if !decodeJSON(w, r, opts.MaxBodyBytes, &req) {
			return
		}
		if len(req.Events) > opts.MaxBatch {
			writeError(w, badRequest("event batch of %d exceeds the limit of %d", len(req.Events), opts.MaxBatch))
			return
		}
		ctx, cancel := requestContext(r.Context(), req.TimeoutMS, opts)
		defer cancel()
		resp, err := store.Events(ctx, r.PathValue("id"), req.Events)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/schedule", func(w http.ResponseWriter, r *http.Request) {
		resp, err := store.Schedule(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/watch", func(w http.ResponseWriter, r *http.Request) {
		entry, err := store.lookup(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		serveWatch(r.Context(), shutdown.of(r.Context()), w, store, entry)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, store.List())
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := store.Delete(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ServerStats{Stats: e.Stats(), Sessions: store.Stats()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"stats":  ServerStats{Stats: e.Stats(), Sessions: store.Stats()},
		})
	})
	return withResilience(mux)
}

// withResilience is the transport half of the overload story: it resolves
// the caller's tenant from the X-Tenant header into the request context
// (the engine's fair-share admission reads it from there, taking precedence
// over any tenant field in the body), and it is the outermost panic
// barrier — a handler panic becomes one internal_error response and a
// panics_recovered tick instead of a dead process. http.ErrAbortHandler is
// re-raised untouched: it is net/http's own control flow for abandoning a
// connection, not a fault.
func withResilience(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t := r.Header.Get("X-Tenant"); t != "" {
			r = r.WithContext(WithTenant(r.Context(), t))
		}
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				err := resilience.RecoverPanic("http handler", rec)
				// Best effort: if the handler already committed a
				// response this write is a no-op on the status line.
				writeError(w, err)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ServerStats is the GET /v1/stats payload: the engine counters inline
// (backwards compatible — previous payloads were exactly Stats) plus the
// session store's lifecycle counters.
type ServerStats struct {
	Stats
	Sessions SessionStats `json:"sessions"`
}

// requestContext derives the per-request deadline from timeout_ms, clamped
// into (0, MaxTimeout], defaulting to DefaultTimeout.
func requestContext(parent context.Context, timeoutMS int, opts HTTPOptions) (context.Context, context.CancelFunc) {
	d := opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > opts.MaxTimeout {
			d = opts.MaxTimeout
		}
	}
	return context.WithTimeout(parent, d)
}

// decodeJSON reads one JSON value from the bounded body; on failure it
// writes the error response itself (413 for an oversized body, 400 for
// anything malformed) and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, fmt.Errorf("%w: request body exceeds the %d-byte limit", ErrPayloadTooLarge, tooBig.Limit))
			return false
		}
		writeError(w, fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err))
		return false
	}
	if dec.More() {
		// A second JSON value would be silently dropped; that's a client
		// bug worth surfacing, not ignoring.
		writeError(w, badRequest("trailing data after the JSON body"))
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, err error) {
	status, apiErr := classify(err)
	var ra *RetryAfterError
	if errors.As(err, &ra) && ra.After > 0 {
		// Whole seconds, rounded up: a 1-second hint must not truncate to
		// "Retry-After: 0", which clients read as "immediately".
		secs := int64((ra.After + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, errorEnvelope{Error: apiErr})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
