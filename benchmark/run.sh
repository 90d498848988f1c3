#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it there, so the build cache, the binary, spill files, page files and
# the span file all stay inside the checkout. Arguments pass through:
#   bash benchmark/run.sh --workload adhoc --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -o "$out/dynbench" .
exec "$out/dynbench" -out "$out" "$@"
