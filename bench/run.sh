#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (bench/ is a Go
# module of its own that imports the repository's internal packages through
# a replace directive) and runs it with the given arguments. Everything the
# build writes — binary, Go build cache, temporary files — goes under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/blueq-bench" .
exec "$build/blueq-bench" "$@"
