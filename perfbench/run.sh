#!/usr/bin/env bash
# Builds the benchmark from the repository's source and runs it. Run it
# from the repository root. Everything the build writes (cache, temporary
# files, the toolchain's own config and telemetry under HOME) stays in
# .bench_build.
#
#   bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && HOME="$out/home" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
