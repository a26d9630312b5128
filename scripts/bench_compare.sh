#!/usr/bin/env bash
# bench_compare.sh — the benchmark regression guard behind `make
# bench-check`: re-run the committed benchmark set briefly and compare
# the result against the checked-in BENCH_thermal.json baseline with
# `benchjson -compare`. Exits non-zero when any shared benchmark's best
# sample regressed past the threshold or a zero-alloc kernel started
# allocating.
#
# Knobs (env):
#   BENCH_PATTERN    benchmarks to run  (default: the Makefile set)
#   BENCH_COUNT      samples per benchmark (default 5 — the compare uses
#                    best-of, so fewer samples than the baseline's 10 is
#                    fine)
#   BENCH_THRESHOLD  allowed slowdown in percent (default 60: generous,
#                    because shared CI boxes jitter; the guard is for
#                    order-of-magnitude mistakes like losing the ADI
#                    speedup or a kernel going accidentally quadratic,
#                    not for 10% drift)
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-BenchmarkKernelThermalStep|BenchmarkKernelADIStep|BenchmarkKernelMLTDField|BenchmarkKernelAnalyzePass|BenchmarkKernelPercentiles|BenchmarkSec4ATempScaling|BenchmarkStackedRun}"
COUNT="${BENCH_COUNT:-5}"
THRESHOLD="${BENCH_THRESHOLD:-60}"
BASELINE="${BENCH_BASELINE:-BENCH_thermal.json}"

if [ ! -f "$BASELINE" ]; then
    echo "bench_compare: no baseline $BASELINE — run 'make bench' and commit it first" >&2
    exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "bench_compare: running '$PATTERN' x$COUNT ..."
go test -run=NONE -bench="$PATTERN" -benchmem -count="$COUNT" . >"$tmp/bench.txt"
go run ./cmd/benchjson -out "$tmp/bench.json" "$tmp/bench.txt"
go run ./cmd/benchjson -compare -threshold "$THRESHOLD" "$BASELINE" "$tmp/bench.json"
