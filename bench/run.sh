#!/usr/bin/env bash
# Builds the pipeline benchmark from source into .bench_build/ at the
# repository root and runs it with the arguments given. Go's build
# cache, module cache and temporary files are kept there too, so that
# nothing is read or written outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/pipeline-bench" ./cmd/pipeline-bench
exec "$build/pipeline-bench" -out "$here/out" "$@"
