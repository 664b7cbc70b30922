#!/usr/bin/env bash
# Builds racebench from the checkout's sources and runs it. Run it from
# the repository root; every argument is passed to racebench, e.g.
#
#   bash bench/run.sh --workload nightly --seed 1 --seconds 25 --trace 0
#
# The build cache, the Go tool's own state, the binary and the run's
# scratch files all stay in .bench_build/ under the current directory.
# The build is offline: the module needs nothing beyond the repository
# and the standard library.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$build/racebench" ./racebench
exec "$build/racebench" "$@"
