#!/usr/bin/env bash
# Builds the flowsyn benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash flowbench/run.sh --workload exact --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

go -C "$root/flowbench" build -o "$out/flowbench" .
exec "$out/flowbench" "$@"
