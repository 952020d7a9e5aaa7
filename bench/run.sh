#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash bench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the span files stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$out/mpccbench-perf" .)
exec "$out/mpccbench-perf" "$@"
