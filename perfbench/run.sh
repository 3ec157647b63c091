#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload compile-corpus --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every file the build and the run
# write (Go build cache, binary, temporary stores) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
