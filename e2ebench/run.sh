#!/usr/bin/env bash
# Builds the end-to-end service benchmark from the checkout's sources and
# runs it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload warm --seed 1 --seconds 12 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/e2ebench" -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
