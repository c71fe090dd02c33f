#!/bin/sh
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# Build cache and temporary files are kept inside the checkout as well, so
# nothing is read or written outside it apart from the Go toolchain itself.
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/dvsbench" .)
exec "$build/dvsbench" "$@"
