package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
)

// TestCodeStatusClosedSet pins the closed set: every documented code maps
// to exactly the documented HTTP status, no two codes collide on spelling,
// and an undocumented code falls back to 500.
func TestCodeStatusClosedSet(t *testing.T) {
	want := map[Code]int{
		CodeBadRequest:      http.StatusBadRequest,
		CodeBadEvent:        http.StatusBadRequest,
		CodeSessionNotFound: http.StatusNotFound,
		CodeSessionClosed:   http.StatusConflict,
		CodePayloadTooLarge: http.StatusRequestEntityTooLarge,
		CodeInfeasible:      http.StatusUnprocessableEntity,
		CodeSearchLimit:     http.StatusUnprocessableEntity,
		CodeCapacity:        http.StatusServiceUnavailable,
		CodeOverloaded:      http.StatusTooManyRequests,
		CodeTenantQuota:     http.StatusTooManyRequests,
		CodeTimeout:         http.StatusGatewayTimeout,
		CodeCanceled:        499,
		CodeInternal:        http.StatusInternalServerError,
	}
	codes := Codes()
	if len(codes) != len(want) {
		t.Fatalf("Codes() has %d entries, want %d", len(codes), len(want))
	}
	seen := map[Code]bool{}
	for _, c := range codes {
		if seen[c] {
			t.Fatalf("duplicate code %q", c)
		}
		seen[c] = true
		status, ok := want[c]
		if !ok {
			t.Fatalf("undocumented code %q", c)
		}
		if got := c.Status(); got != status {
			t.Fatalf("%s.Status() = %d, want %d", c, got, status)
		}
	}
	if got := Code("no_such_code").Status(); got != http.StatusInternalServerError {
		t.Fatalf("unknown code status %d, want 500", got)
	}
}

// TestErrorTable is the endpoint × failure-mode matrix: every way a request
// can fail answers with a documented code and its documented status.
func TestErrorTable(t *testing.T) {
	srv, _ := newTestServer(t, Options{}, HTTPOptions{
		MaxBodyBytes: 4096,
		MaxSessions:  1,
	})
	// One live session for the session-scoped rows; MaxSessions 1 makes the
	// next create hit capacity.
	sess := createSession(t, srv.URL, chainSessionBody)

	do := func(t *testing.T, method, path, body string) (*http.Response, []byte) {
		t.Helper()
		var req *http.Request
		var err error
		if body == "" {
			req, err = http.NewRequest(method, srv.URL+path, nil)
		} else {
			req, err = http.NewRequest(method, srv.URL+path, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	oversized := `{"pad":"` + strings.Repeat("x", 8192) + `"}`
	cases := []struct {
		name         string
		method, path string
		body         string
		code         Code
		// sse marks failures that strike after the stream's first event:
		// the 200 is committed, so the code arrives as a terminal `error`
		// event instead of an error status.
		sse bool
	}{
		{"solve malformed", "POST", "/v1/solve", `{`, CodeBadRequest, false},
		{"solve empty graph", "POST", "/v1/solve", `{"graph":{"tasks":[]},"deadline":1,"model":{"kind":"continuous","smax":1}}`, CodeBadRequest, false},
		{"solve infeasible", "POST", "/v1/solve", `{"graph":{"tasks":[{"weight":8}]},"deadline":1,"model":{"kind":"continuous","smax":2}}`, CodeInfeasible, false},
		{"solve oversized body", "POST", "/v1/solve", oversized, CodePayloadTooLarge, false},
		{"stream malformed", "POST", "/v1/solve/stream", `{`, CodeBadRequest, false},
		{"stream bad model", "POST", "/v1/solve/stream", `{"graph":{"tasks":[{"weight":1}]},"deadline":1,"model":{"kind":"warp"}}`, CodeBadRequest, false},
		{"stream infeasible", "POST", "/v1/solve/stream", `{"graph":{"tasks":[{"weight":8}]},"deadline":1,"model":{"kind":"continuous","smax":2}}`, CodeInfeasible, true},
		{"batch empty", "POST", "/v1/solve/batch", `{"requests":[]}`, CodeBadRequest, false},
		{"plan bad algorithm", "POST", "/v1/plan", `{"graph":{"tasks":[{"weight":1}]},"deadline":1,"model":{"kind":"continuous","smax":1},"algorithm":"bb"}`, CodeBadRequest, false},
		{"sessions capacity", "POST", "/v1/sessions", chainSessionBody, CodeCapacity, false},
		{"events unknown session", "POST", "/v1/sessions/nope/events", `{"events":[{"task":0,"actual_duration":1}]}`, CodeSessionNotFound, false},
		{"events empty batch", "POST", "/v1/sessions/" + sess.SessionID + "/events", `{"events":[]}`, CodeBadRequest, false},
		{"schedule unknown session", "GET", "/v1/sessions/nope/schedule", "", CodeSessionNotFound, false},
		{"watch unknown session", "GET", "/v1/sessions/nope/watch", "", CodeSessionNotFound, false},
		{"delete unknown session", "DELETE", "/v1/sessions/nope", "", CodeSessionNotFound, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := do(t, tc.method, tc.path, tc.body)
			var apiErr APIError
			if tc.sse {
				// Mid-stream failure: 200 committed, the code rides the
				// terminal `error` event.
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("SSE status %d, want 200", resp.StatusCode)
				}
				events := readSSE(t, bufio.NewReader(bytes.NewReader(body)), 100)
				if len(events) == 0 || events[len(events)-1].Type != EventError {
					t.Fatalf("no terminal error event in %s", body)
				}
				if err := json.Unmarshal(events[len(events)-1].Data, &apiErr); err != nil {
					t.Fatal(err)
				}
			} else {
				var env errorEnvelope
				if err := json.Unmarshal(body, &env); err != nil {
					t.Fatalf("non-JSON error body %s (status %d): %v", body, resp.StatusCode, err)
				}
				apiErr = env.Error
				if resp.StatusCode != tc.code.Status() {
					t.Fatalf("status %d, want %d", resp.StatusCode, tc.code.Status())
				}
			}
			if apiErr.Code != string(tc.code) {
				t.Fatalf("code %q, want %q (body %s)", apiErr.Code, tc.code, body)
			}
			if apiErr.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
	// Every code the endpoints can emit is in the documented set.
	documented := map[string]bool{}
	for _, c := range Codes() {
		documented[string(c)] = true
	}
	for _, tc := range cases {
		if !documented[string(tc.code)] {
			t.Fatalf("case %q expects undocumented code %q", tc.name, tc.code)
		}
	}
}

// TestClassifySentinels pins the error→code mapping for the failure modes
// the HTTP table can't reach deterministically (timeouts, cancellation,
// shedding, session races).
func TestClassifySentinels(t *testing.T) {
	cases := []struct {
		err  error
		code Code
	}{
		{context.DeadlineExceeded, CodeTimeout},
		{context.Canceled, CodeCanceled},
		{ErrOverloaded, CodeOverloaded},
		{ErrTooManySessions, CodeCapacity},
		{ErrSessionNotFound, CodeSessionNotFound},
		{ErrPayloadTooLarge, CodePayloadTooLarge},
		{ErrInfeasible, CodeInfeasible},
		{ErrSearchLimit, CodeSearchLimit},
		{errors.New("mystery"), CodeInternal},
	}
	for _, tc := range cases {
		status, apiErr := classify(tc.err)
		if apiErr.Code != string(tc.code) {
			t.Errorf("classify(%v) code %q, want %q", tc.err, apiErr.Code, tc.code)
		}
		if status != tc.code.Status() {
			t.Errorf("classify(%v) status %d, want %d", tc.err, status, tc.code.Status())
		}
	}
}
