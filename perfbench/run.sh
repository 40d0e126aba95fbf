#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload batch-scan --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and the binary live under .bench_build/ in
# the checkout, so a run writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
