#!/usr/bin/env bash
# Builds physchedd and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ (Go build cache included); the benchmark
# process replaces this shell, so signals reach it directly.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$out/bin/physchedd" ./cmd/physchedd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --physchedd "$out/bin/physchedd" "$@"
