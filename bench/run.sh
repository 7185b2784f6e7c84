#!/usr/bin/env bash
# Builds the benchmark from source and runs one invocation of it:
#   bash bench/run.sh --workload svc-hot --seed 1 --seconds 26 --trace 0
# Everything go writes (build cache, module cache, telemetry) is pointed
# inside the checkout; go build is a cache hit after the first run. In a
# directory without the subtrav module beside bench/ the build fails and the
# script exits non-zero without a result line.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -buildvcs=false -o "$build/subtrav-e2e" .) >&2
exec "$build/subtrav-e2e" "$@"
