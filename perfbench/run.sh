#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload cold-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go caches, tool config, temporary
# files, sweep caches, traces) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
