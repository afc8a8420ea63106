#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Every build artifact (the Go build cache and the binary) stays under
# .bench_build/ in the checkout. The build fails, and so does this script,
# when the repository's sources are not next to perfbench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
