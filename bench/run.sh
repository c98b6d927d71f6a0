#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it there with the given arguments. The Go build cache
# and every file the benchmark writes stay inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
go build -C bench -o "$root/.bench_build/bench" .
exec .bench_build/bench "$@"
