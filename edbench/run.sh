#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash edbench/run.sh --workload attack-exact --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artefact, the Go build cache,
# the toolchain's telemetry and the span files of traced runs stay under
# .bench_build/ in the checkout; the toolchain is never asked to download
# anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/edbench" && go build -o "$out/edbench" .)
exec "$out/edbench" -spans "$out/spans" "$@"
