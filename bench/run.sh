#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given: the command BENCHMARK.json names. Everything the
# build writes (compiler cache, binary) goes under .bench_build/, so a
# run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
