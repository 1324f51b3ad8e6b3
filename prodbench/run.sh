#!/usr/bin/env bash
# Builds the product benchmark from this checkout's sources and runs it
# from the repository root, e.g.
#
#   bash prodbench/run.sh --workload report-quick-cold --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch
# directories all live under .bench_build/ in the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/prodbench" && go build -o "$out/prodbench-bin" .)
cd "$root"
exec "$out/prodbench-bin" "$@"
