GO ?= go

# Benchmark settings: BENCH_COUNT feeds -count (benchstat wants >= 10
# samples); BENCH_PATTERN selects the hot kernels plus one end-to-end run.
BENCH_COUNT ?= 10
BENCH_PATTERN ?= BenchmarkKernelThermalStep|BenchmarkKernelADIStep|BenchmarkKernelMLTDField|BenchmarkKernelAnalyzePass|BenchmarkKernelPercentiles|BenchmarkKernelSteadySolve|BenchmarkSec4ATempScaling|BenchmarkStackedRun

.PHONY: all build test vet fmt-check check faultcheck stackcheck crashcheck clustercheck chaoscheck fuzzsmoke triagecheck bench bench-check bench-all serve-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

# The full CI gate: build, tests (incl. the internal-package docs lint),
# vet, and gofmt cleanliness.
check: build test vet fmt-check

# The fault-tolerance suite under the race detector, run twice: panic
# isolation, per-run deadlines, retry/backoff, the end-to-end faulty
# campaign and the cluster coordinator (leases, dispatch, the bounded
# local fallback) all involve goroutine handoff, so -race -count=2 is
# the gate that catches both data races and order-dependent flakiness.
faultcheck:
	$(GO) test -race -count=2 ./internal/fault/ ./internal/sim/ ./internal/serve/ ./internal/store/ ./internal/surrogate/ ./internal/thermal/ ./internal/power/ ./internal/floorplan/ ./internal/cluster/

# The stacked-scenario smoke under the race detector: every multi-die
# preset end-to-end (per-die series, DRAM power feedback, hash
# coherence) plus the daemon's stacked wire form — the paths where the
# per-plane power frames and scratch buffers could race.
stackcheck:
	$(GO) test -race -count=1 -run 'TestStackPreset|TestSingleDieRunUnchanged|TestBuriedCoreRunsHotter|TestSpecStackMaterialization|TestDefaultStackFolding|TestStackedRunView' ./internal/sim/ ./internal/serve/

# The SIGKILL crash e2e: a real daemon child process is killed -9
# mid-campaign and restarted on the same data dir; the test asserts no
# run result is lost or duplicated and that recovered results are
# byte-identical to an uninterrupted control run. Env-gated because it
# forks daemon processes.
crashcheck:
	HOTGAUGE_CRASH_E2E=1 $(GO) test -race -count=1 -run '^TestCrashRecovery$$' -v ./internal/serve/

# The multi-node cluster e2e: a coordinator with three in-process
# workers loses one to a hard kill mid-campaign; the test asserts the
# campaign still completes with every run resolved exactly once and
# byte-identical to a single-node control. Env-gated because the
# lease-expiry wait makes it seconds-slow.
clustercheck:
	HOTGAUGE_CLUSTER_E2E=1 $(GO) test -race -count=1 -run '^TestClusterKillWorker$$' -v ./internal/serve/

# The chaos soak e2e: a coordinator plus three workers run a full
# campaign under three seeded chaos schedules (the flaky and lossy
# presets, and a one-way partition that opens mid-campaign and heals),
# asserting every run resolves exactly once with bytes identical to an
# undisturbed single-node control, that the partitioned worker's
# dispatch breaker trips and later closes, and — via the fencing suite —
# that a superseded lease epoch cannot resolve a run. Env-gated because
# partition windows and lease expiries make it seconds-slow.
chaoscheck:
	HOTGAUGE_CHAOS_E2E=1 $(GO) test -race -count=1 -run '^TestChaosSoak$$' -v ./internal/serve/
	$(GO) test -race -count=1 -run '^TestFencedEpoch' -v ./internal/cluster/

# Short coverage-guided fuzz runs over the decode boundaries chaos
# corruption exercises: both cluster wire envelopes (seal / verify /
# round-trip must never panic and never unseal corrupt bytes) and the
# job-submission spec decoder (materialize + hash must be stable); plus
# the per-frame analysis pass (the fused, cut-pruned MLTD/severity
# maxima must equal the per-cell definition bit for bit).
FUZZTIME ?= 10s
fuzzsmoke:
	$(GO) test -run=NONE -fuzz='^FuzzAnalyzePass$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz='^FuzzRemoteRunEnvelope$$' -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run=NONE -fuzz='^FuzzRemoteResultEnvelope$$' -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run=NONE -fuzz='^FuzzConfigSpecDecode$$' -fuzztime=$(FUZZTIME) ./internal/serve/

# Predict-first triage under the race detector. First the unit tests of
# the one triage sequence (Score → PredictedResult, or execute then
# ObserveAudit) in internal/sim and in its single-run CLI driver. Then
# the e2e: a ≥50-run campaign simulates exactly (the control), a
# surrogate is fitted from the control's result store, and the same
# campaign replays through a surrogate-holding daemon; the test asserts
# at most half the runs execute exactly, every control-frontier run
# (severity ≥ 0.5) is exact-verified with the control's severity (zero
# false negatives), and the audit MAE is exposed via metrics and
# /report. The e2e is env-gated: it runs the campaign twice.
triagecheck:
	$(GO) test -race -count=1 -run 'Triage|Audit|Predicted' ./internal/sim/
	$(GO) test -race -count=1 -run '^TestExecuteTriage$$' ./cmd/hotgauge/
	HOTGAUGE_TRIAGE_E2E=1 $(GO) test -race -count=1 -run '^TestTriageE2E$$' -v ./internal/serve/

# Kernel + end-to-end benchmarks with benchstat-ready repetition; the raw
# output lands in BENCH_thermal.txt and a machine-readable summary (name,
# ns/op, allocs/op) in BENCH_thermal.json.
bench:
	$(GO) test -run=NONE -bench='$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) . | tee BENCH_thermal.txt
	$(GO) run ./cmd/benchjson -out BENCH_thermal.json BENCH_thermal.txt

# Benchmark regression guard: re-run the benchmark set briefly and
# compare best samples against the committed BENCH_thermal.json with
# benchjson -compare (threshold/pattern/count via BENCH_* env vars).
bench-check:
	bash scripts/bench_compare.sh

# Every benchmark in the repo, once (the paper-artifact sweep).
bench-all:
	$(GO) test -run=NONE -bench=. -benchmem .

# End-to-end smoke test of the hotgauged campaign daemon: build, serve,
# submit a tiny campaign twice, assert the repeat was a cache hit.
serve-smoke:
	bash scripts/serve_smoke.sh
