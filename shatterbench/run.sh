#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash shatterbench/run.sh --workload attacked_fleet --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache, the binary and run-time
# scratch live under .bench_build/ in the working directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# Keep the go command's caches and its config dir (go env file, telemetry
# counters) inside the working directory; the module has no dependencies,
# so nothing is fetched.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/shatterbench" && go build -o "$out/shatterbench" .)
exec "$out/shatterbench" "$@"
