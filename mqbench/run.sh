#!/usr/bin/env bash
# Builds mqbench from this checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash mqbench/run.sh --workload mine-read --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/mqbench" && go build -o "$out/mqbench" .)
exec "$out/mqbench" "$@"
