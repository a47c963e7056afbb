#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; BENCHMARK.json
# names this script as the command. Build outputs, the Go build cache and
# everything the run writes stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOPATH="$PWD/.bench_build/gopath" \
  XDG_CONFIG_HOME="$PWD/.bench_build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
# Telemetry off in this private config dir: with a fresh one the go command
# forks a telemetry side-car that outlives the build, and a run may leave no
# process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
