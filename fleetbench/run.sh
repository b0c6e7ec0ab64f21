#!/usr/bin/env bash
# Builds fleetbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash fleetbench/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout. Build output goes to stderr, so the last
# line of stdout is always the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
export GOCACHE="$build/gocache" GOPATH="$build/gopath"

(cd "$root/fleetbench" && go build -o "$build/fleetbench" .) >&2
exec "$build/fleetbench" "$@"
