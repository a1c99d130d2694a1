#!/usr/bin/env bash
# Builds stepbench once and runs it with the arguments given; with none,
# it runs all five workloads, timed and traced. This is the command of
# BENCHMARK.json: `bash bench/run.sh --workload NAME --seed N --seconds S
# --trace 0|1`, from the root of a checkout.
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, the binary and Go's own bookkeeping go to .bench_build/,
# results and span dumps to bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/stepbench" ./stepbench
STEPBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export STEPBENCH_COMMIT
cd "$root"
exec "$build/stepbench" "$@"
