#!/usr/bin/env bash
# run.sh — what BENCHMARK.json's "command" runs, from the root of a
# checkout: build afraidbench from source into .bench_build (Go's build
# cache too, so nothing is read or written outside the checkout), then
# run it with the driver's arguments. The build is a no-op after the
# first run.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
mkdir -p .bench_build
go build -o .bench_build/afraidbench ./cmd/afraidbench
exec .bench_build/afraidbench -spans .bench_build/afraidbench-trace.json "$@"
