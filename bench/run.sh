#!/usr/bin/env bash
# Builds the benchmark and wfserve from this checkout, then runs one
# benchmark workload. Run from the root of a checkout:
#
#   bash bench/run.sh --workload solve-hot --seed 1 --seconds 15 --trace 0
#
# bench/ is a Go module of its own (see README.md, "Running").
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Build products and every Go cache go under .bench_build/, so a run writes
# nothing outside the checkout. The build uses the installed toolchain and
# never the network, and ignores any go.work or GOFLAGS of the caller.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$bench_dir"
go build -o "$out/wfbench" .
go build -o "$out/wfserve" repliflow/cmd/wfserve
cd "$root"
exec "$out/wfbench" -wfserve "$out/wfserve" -trace-dir "$out/trace" "$@"
