#!/usr/bin/env bash
# Builds the benchmark (module mpicd/bench, which compiles the stack under
# test from the checkout's sources) into .bench_build/ and runs it from the
# checkout root. Everything the build and the run write stays under
# .bench_build/: binary, Go build cache, SHM session directories.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off
go build -C "$here" -o "$build/mpicd-bench" .
cd "$root"
exec "$build/mpicd-bench" "$@"
