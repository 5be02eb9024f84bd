#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments it is given. Everything the toolchain writes (build cache,
# binary) and everything the benchmark writes (durable-store data
# directories) stays under .bench_build in the current directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$out/grape-benchmark" .
exec "$out/grape-benchmark" "$@"
