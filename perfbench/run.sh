#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload fig5-sat --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary files, the binary and the benchmark's
# digest records all live under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$build/perfbench" .)

# The ceiling keeps git from reporting an enclosing repository's revision
# when the working directory is not a checkout of its own.
PERFBENCH_GIT_REV=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_GIT_REV
exec "$build/perfbench" --state "$build/digests" "$@"
