#!/usr/bin/env bash
# Builds gtsperf and runs it with the given arguments. The binary, the Go
# build cache and the module cache all live in .bench_build at the root of
# the checkout, so a run writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
cd "$here"
go build -o "$build/gtsperf" .
exec "$build/gtsperf" "$@"
