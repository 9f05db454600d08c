# Repro of "Reclaiming the Energy of a Schedule" (SPAA'11) — build targets.

GO ?= go

# Fuzzing time per target (CI's fuzz-short job passes FUZZTIME=5s).
FUZZTIME ?= 10s
# Wall-clock slowdown tolerated by bench-compare before a scenario fails.
TOLERANCE ?= 2

.PHONY: all build test race vet fmt bench verify bench-all bench-compare bench-baseline bench-large bench-huge ab loadtest chaos perfbench-test fuzz loc clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file is not gofmt-formatted.
# CI's lint job runs this same target.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:" >&2; echo "$$out" >&2; exit 1; \
	fi

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run NONE ./...

# verify chains the full gate: static checks (the formatting check and go
# vet, as CI's lint job runs them), the race-detected suite, a one-shot
# pass over every benchmark (so perf regressions break loudly), and the
# benchmark module's own vet and tests (so a tree perfbench cannot build
# fails here, not in the benchmark run).
verify: fmt vet race bench perfbench-test

# bench-all runs the full energybench scenario registry (every graph family
# × energy model × solve path) and writes the canonical report.
bench-all:
	$(GO) run ./cmd/energybench -run '.*' -out BENCH_current.json

# bench-compare is the CI perf-regression gate: run the full registry and
# diff it against the committed baseline; exits non-zero on a regression.
bench-compare:
	$(GO) run ./cmd/energybench -run '.*' -baseline BENCH_baseline.json \
		-tolerance $(TOLERANCE) -out BENCH_current.json -compare-out BENCH_compare.json

# bench-large runs the large-N tier (512–4096-task sparse-kernel and
# closed-form-at-scale scenarios) and gates it against the committed
# baseline, which carries both tiers. Slower than the default registry by
# design — it is its own CI step, not part of bench-all.
bench-large:
	$(GO) run ./cmd/energybench -tier large -run '.*' -baseline BENCH_baseline.json \
		-tolerance $(TOLERANCE) -out BENCH_large.json -compare-out BENCH_large_compare.json

# bench-huge runs the out-of-core tier: 32k–1M-task instances written to
# disk and solved through the memory-mapped EGRF path, with peak RSS
# recorded per scenario (peak_rss_bytes). Opt-in — it writes multi-
# megabyte temp files and holds minute-scale solves, so it is its own CI
# job, not part of bench-all.
bench-huge:
	$(GO) run ./cmd/energybench -tier huge -run '.*' -baseline BENCH_baseline.json \
		-tolerance $(TOLERANCE) -out BENCH_huge.json -compare-out BENCH_huge_compare.json

# bench-baseline refreshes the committed baseline after an intentional perf
# change (commit the result). Every tier: the default registry, the large-N
# kernel scenarios, and the out-of-core huge tier all live in the same
# BENCH_baseline.json.
bench-baseline:
	$(GO) run ./cmd/energybench -tier all -run '.*' -out BENCH_baseline.json

# ab runs perfbench's WORKLOAD on revision BASE and on this checkout in
# PAIRS alternating pairs at SEED, offline, and prints per end-to-end
# metric both medians and q1–q3, their ratio and the change's win count
# (scripts/ab.sh; the result lines stay under .bench_build/ab).
BASE ?= HEAD
WORKLOAD ?= sessions
PAIRS ?= 10
SEED ?= 1
ab:
	bash scripts/ab.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

# loadtest storms an in-process server with the production traffic mix
# (zipf-popular solves, streamed solves, reclaiming-session lifecycles with
# watchers, jittered events and abandons, batch floods; open-loop arrivals,
# coordinated-omission-safe latency) and gates the result on an SLO: p99
# under 500 ms at ~150 req/s, zero 5xx, and a stream's first `plan` event
# inside 100 ms at p99. -jitter-values perturbs every arrival's weights and
# deadline so hot shapes miss the instance cache and ride the structure
# cache instead — the value-churn traffic the amortization layer exists
# for. -tenants 3 spreads arrivals zipf-style over three tenants — a
# flooding tenant-0 and two victims — and the fairness gate fails the run
# if any tenant's p99 detaches more than 10× from the median tenant p99.
# 429s retry with backoff (-retries 3); the run also asserts zero panics
# recovered without injection and a drained backlog. Writes the
# energybench/v1 report to BENCH_load.json.
loadtest:
	$(GO) run ./cmd/energyload -rate 150 -duration 4s -n 12 -mix 'solve=5,session=3,stream=1,batch=1' \
		-jitter-values 0.2 -tenants 3 -fairness-k 10 -retries 3 \
		-slo-p99 500 -slo-error-rate 0 -slo-first-plan-p99 100 -out BENCH_load.json

# chaos runs the fault-injection suites under the race detector: the
# randomized storm over all four models with errors/latency/panics armed at
# every site (solver, session store, pipeline, mmap), plus the unit suites
# of the resilience package. Green means: no crash, every failure a
# classified error, no leaked admission token, pool slot, or session.
chaos:
	$(GO) test -race ./internal/resilience/
	$(GO) test -race -run 'Chaos|Fault|Panic|Degraded|TenantQuota' ./internal/service/
	$(GO) run ./cmd/energyload -chaos -rate 120 -duration 3s -n 10 -tenants 3 -fairness-k 0 \
		-retries 3 -slo-error-rate 0.2

# perfbench-test vets and tests the benchmark module against this checkout.
# perfbench/ is its own Go module, so `go test ./...` never compiles it, yet
# it calls the planner, executor, cache, session, and streaming code of this
# module: a change there that breaks the benchmark fails here.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# Short fuzz pass over every fuzz target (decoders, canonical encoding, SP
# recognizer, the interior point's numerics, the Discrete SP DP against its
# oracle, solve and plan requests).
# FUZZTIME tunes the per-target budget.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzGraphJSON -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzGraphCanonical -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzDecomposeSP -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzSolveNumeric -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzDiscreteSP -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzSolveRequest -fuzztime=$(FUZZTIME) ./internal/service/
	$(GO) test -run=NONE -fuzz=FuzzBatchDecode -fuzztime=$(FUZZTIME) ./internal/service/
	$(GO) test -run=NONE -fuzz=FuzzPlanRequest -fuzztime=$(FUZZTIME) ./internal/service/
	$(GO) test -run=NONE -fuzz=FuzzSessionEvents -fuzztime=$(FUZZTIME) ./internal/service/

# loc prints the non-test Go line count outside perfbench/ (tracked and
# untracked-but-not-ignored files) — the figure ROADMAP's LoC targets use.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v _test.go | grep -v '^perfbench/' | xargs cat | wc -l

clean:
	$(GO) clean ./...
