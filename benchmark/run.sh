#!/bin/sh
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache, temporary files and the binary all
# live under .bench_build/) and runs it with the caller's arguments.
# Run from the repository root; `go run ./benchmark` does the same with
# the user's own build cache.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
go build -o "$out/albabench" ./benchmark
exec "$out/albabench" -tmp "$out/tmp" "$@"
