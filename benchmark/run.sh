#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   sh benchmark/run.sh --serve-rate 460 --workload insitu-deform --seed 2025 --seconds 50 --trace 0
#
# The build cache and binary live under .bench_build/ in the checkout, and
# module downloads are disabled: the benchmark needs nothing outside the
# repository and the Go toolchain.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep the Go toolchain's cache, module path and per-user config (telemetry
# counters included) inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C benchmark -o "$build/caliqec-bench" .
exec "$build/caliqec-bench" "$@"
