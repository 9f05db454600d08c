package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// planDigest hashes every arrival of a serve plan with the exact request
// body it sends.
func planDigest(t *testing.T, seed int64) [32]byte {
	t.Helper()
	env, err := setupServe(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	h := sha256.New()
	for _, a := range servePlan(seed, serveRate, 2*time.Second, 0) {
		body, err := json.Marshal(env.instanceOf(a).request(a.scale))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d %t %d %d %x\n", a.at, a.stream, a.rank, a.variant, body)
	}
	return [32]byte(h.Sum(nil))
}

func TestSameSeedSameRequestPlan(t *testing.T) {
	if planDigest(t, 7) != planDigest(t, 7) {
		t.Fatal("the serve plan of one seed differs between two set-ups")
	}
	if planDigest(t, 7) == planDigest(t, 8) {
		t.Fatal("two seeds produced the same serve plan")
	}
	s1, s2 := sessionPlan(7, 24, sessionRate, 96), sessionPlan(7, 24, sessionRate, 96)
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatal("the sessions plan of one seed differs between two draws")
	}
}

// TestDeckKeepsTheMix pins the stratified plan: every deck holds each
// rank in its zipf proportion and the stream and repeat shares exactly.
func TestDeckKeepsTheMix(t *testing.T) {
	plan := servePlan(3, 0, 0, 2*serveDeck)
	counts := map[int]int{}
	streams, repeats := 0, 0
	for _, a := range plan[:serveDeck] {
		counts[a.rank]++
		if a.stream {
			streams++
		}
		if a.variant < 0 {
			repeats++
		}
	}
	if got := counts[0]; got < 480 || got > 500 {
		t.Errorf("rank 0 drew %d of %d, want ~%d", got, serveDeck, 492)
	}
	if f := float64(streams) / serveDeck; f < 0.19 || f > 0.22 {
		t.Errorf("stream share %.3f, want 0.2", f)
	}
	if f := float64(repeats) / serveDeck; f < 0.23 || f > 0.26 {
		t.Errorf("exact-repeat share %.3f, want 0.25", f)
	}
}

// lastResult runs perfbench and decodes its last output line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("perfbench %v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"serve", "sessions", "kernel"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				res := lastResult(t, "--workload", w, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--spans", spans)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("no spans written: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// corruptEnergy multiplies the energy of every /v1/solve answer by 1.01.
func corruptEnergy(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		var resp service.SolveResponse
		if r.URL.Path == "/v1/solve" && rec.Code == http.StatusOK && json.Unmarshal(body, &resp) == nil {
			resp.Energy *= 1.01
			body, _ = json.Marshal(&resp)
		}
		w.WriteHeader(rec.Code)
		_, _ = io.Copy(w, bytes.NewReader(body))
	})
}

func TestCorruptedEnergyCountsAsFailed(t *testing.T) {
	env, err := setupServe(5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	bad := httptest.NewServer(corruptEnergy(service.NewHandler(env.engine, service.HTTPOptions{})))
	defer bad.Close()
	var arrivals []serveArrival
	for _, a := range servePlan(5, serveRate, time.Second, 0) {
		if !a.stream && len(arrivals) < 40 {
			arrivals = append(arrivals, a)
		}
	}
	good := newReport(io.Discard)
	env.runServePhase(good, arrivals, 0, nil)
	if good.failed != 0 {
		t.Fatalf("%d of %d honest answers failed the oracle", good.failed, good.attempted)
	}
	env.srv.Close()
	env.srv = bad
	rep := newReport(io.Discard)
	env.runServePhase(rep, arrivals, 0, nil)
	if rep.failed != len(arrivals) || rep.attempted != len(arrivals) {
		t.Fatalf("corrupted answers: %d failed of %d attempted, want all %d", rep.failed, rep.attempted, len(arrivals))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside perfbench:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
