#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload stream-firehose --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache, temp files, journals, traces).
set -euo pipefail

work="$PWD/.bench_build"
bench_dir="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$work/gocache" "$work/gomodcache" "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

(cd "$bench_dir" && go build -o "$work/e2ebench" .) >&2
exec "$work/e2ebench" --workdir "$work" "$@"
