#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and every binary the benchmark builds
# live under .bench_build, so a run writes nothing outside the checkout and
# never reaches the network (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/bench" build -o "$out/bin/bench" .
cd "$root"
exec "$out/bin/bench" "$@"
