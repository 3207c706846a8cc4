#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the root of the checkout:
#
#   bash bench/run.sh --workload report --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, the run's scratch files and its result files
# all stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command's telemetry and settings live under the user config dir.
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
