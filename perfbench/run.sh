#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload exec-batch --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under the build directory ($CARGO_TARGET_DIR, else .bench_build).
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
build="$build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/reports" "$@"
