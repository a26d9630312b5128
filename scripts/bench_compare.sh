#!/usr/bin/env bash
# bench_compare.sh — the kernel benchmark regression gate behind `make
# bench-check`. It builds the root package's test binary twice: from the
# working tree, and from the base commit (the merge base with main, or
# HEAD~1 when HEAD is that merge base). It then runs the gated
# benchmarks ROUNDS times per side, one sample per side per round,
# alternating which side goes first, and compares the two outputs with
# cmd/benchcmp (best sample, 60% threshold, no new allocations in a
# zero-alloc benchmark). Both sides run on one host in one sitting, so
# no committed baseline is needed and none is kept.
#
# BENCH_PATTERN, the gated benchmark set, is written once in the
# Makefile; `make bench-check` passes it in.
set -euo pipefail
cd "$(dirname "$0")/.."

: "${BENCH_PATTERN:?run this through 'make bench-check', which sets BENCH_PATTERN}"
# 5, not 3: with 3 rounds an untouched kernel read +59% on a shared
# 2-vCPU host, too close to the threshold.
ROUNDS=5

base="$(git merge-base HEAD main 2>/dev/null || git rev-parse HEAD)"
if [ "$base" = "$(git rev-parse HEAD)" ]; then
    base="$(git rev-parse HEAD~1)"
fi

# The base source goes into a plain temp dir (git archive, not a
# worktree), so a killed run leaves nothing registered in the repo.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"

echo "bench_compare: building $(git rev-parse --short "$base") (base) and the working tree (change) ..."
go build -o "$tmp/benchcmp" ./cmd/benchcmp
go test -c -o "$tmp/change.test" .
(cd "$tmp/src" && go test -c -o "$tmp/base.test" .)

# run SIDE DIR appends one sample of every gated benchmark to SIDE.txt,
# running the test binary from its own source tree.
run() {
    (cd "$2" && "$tmp/$1.test" -test.run=NONE -test.bench="$BENCH_PATTERN" \
        -test.benchmem -test.count=1 -test.timeout=10m) >>"$tmp/$1.txt"
}

for round in $(seq "$ROUNDS"); do
    echo "bench_compare: round $round/$ROUNDS ..."
    if [ $((round % 2)) -eq 1 ]; then
        run base "$tmp/src"
        run change .
    else
        run change .
        run base "$tmp/src"
    fi
done
"$tmp/benchcmp" "$tmp/base.txt" "$tmp/change.txt"
