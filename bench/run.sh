#!/usr/bin/env bash
# Builds the benchmark and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload trickle-durable --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binaries) goes under .bench_build in the checkout, so a run reads and
# writes nothing outside it and needs neither $HOME nor the network.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/go-tmp"
export GOPATH="$root/.bench_build/go-path" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$root/.bench_build/bin"
go build -C "$root/bench" -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" "$@"
