#!/usr/bin/env bash
# Builds the spine from source and runs it from the repository root, the
# way BENCHMARK.json's command does. Everything the build writes stays in
# the checkout, under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$bench" -o "$build/spine" ./spine
cd "$root"
exec "$build/spine" -dir "$bench" "$@"
