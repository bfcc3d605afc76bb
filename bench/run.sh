#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of the checkout whatever the caller's directory. Every build
# output — binary, Go build cache, temporary files — stays in .bench_build/
# inside the checkout, and no toolchain or module is downloaded.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
