#!/usr/bin/env bash
# Builds the MrCC benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-250k --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind (compiler cache, binary,
# scratch data) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go build -C perfbench -buildvcs=false -o "$out/mrcc-bench" .
exec "$out/mrcc-bench" -workdir "$out/work" -commit "$commit" "$@"
