#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# flags, e.g. `bash bench/run.sh --workload sec4a --seed 1 --seconds 15`.
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, temp data dirs) stays under
# .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

(cd "$bench" && go build -o "$out/hotgauge-bench" .)
exec "$out/hotgauge-bench" "$@"
