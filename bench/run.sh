#!/usr/bin/env bash
# Builds the benchmark from source and runs it from this directory, so that
# golden.json and out/ resolve relative to bench/. Every build product and
# the Go build cache stay inside the checkout, under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOWORK=off GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/bench" .
exec "$build/bench" "$@"
