#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, passing
# every argument through, e.g.
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, the
# span files and CPU profiles all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
