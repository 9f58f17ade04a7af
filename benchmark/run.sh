#!/usr/bin/env bash
# Builds astro-node and the benchmark from source into .bench_build/ of
# the checkout and execs the benchmark with the driver's arguments. The
# Go build cache and temp directory live inside the checkout as well, so
# nothing outside it is read or written.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
t0=$(date +%s.%N)
go build -o "$build/bin/astro-node" ./cmd/astro-node
(cd benchmark && go build -o "$build/bin/astro-bench" .)
t1=$(date +%s.%N)
export ASTRO_BENCH_BUILD_S=$(echo "$t1 $t0" | awk '{printf "%.4f", $1-$2}')
exec "$build/bin/astro-bench" -root "$root" -node-bin "$build/bin/astro-node" "$@"
