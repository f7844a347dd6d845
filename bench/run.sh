#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed through (see README.md). Build outputs, the Go build
# cache and temporary files stay in .bench_build/ at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly
cd "$root/bench"
go build -trimpath -o "$build/bench" .
exec "$build/bench" "$@"
