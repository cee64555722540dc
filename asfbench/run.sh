#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash asfbench/run.sh --workload sim-matrix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and scratch output (Go build
# cache, temp files, the binary) stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C asfbench build -o "$out/asfbench" .
exec "$out/asfbench" "$@"
