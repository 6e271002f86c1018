#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 55 --trace 0
#
# The build, with its Go caches, stays in .bench_build/; run records (host,
# spans, per-layer tables) go to .bench_out/. The build is offline: the
# module needs nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
