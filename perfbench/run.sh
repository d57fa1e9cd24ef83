#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
# Every build and run artifact (Go build cache, module cache, binary,
# daemon journals, span dumps) lives under .bench_build at the root of
# the checkout, so nothing outside the checkout is read or written
# apart from the Go toolchain itself.
#
#   bash perfbench/run.sh --workload grid21-chunk-rr --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
