#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload tcp-write --seed 1 --seconds 40 --trace 0
#
# Run from the root of a checkout. Everything the build and the run leave
# behind (Go build cache, binary, span files) goes under
# .bench_build in the checkout. Without the repository's sources next to
# perfbench/ the build fails and the script exits nonzero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# Build offline from these sources only: no downloads, no user go env.
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
