#!/usr/bin/env bash
# Builds the end-to-end benchmark and rpserve from this checkout, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh --workload fit-dense --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1 -out results.json     # all four workloads
#
# The Go build cache, the binaries and every scratch file stay under
# .bench_build/ in the current directory. Build time is not measured.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C bench build -o "$build/bin/e2e" ./e2e
go build -o "$build/bin/rpserve" ./cmd/rpserve
exec "$build/bin/e2e" -rpserve "$build/bin/rpserve" -work "$build/work" "$@"
