#!/usr/bin/env bash
# Builds perfbench from this checkout's sources into the build directory
# (CARGO_TARGET_DIR, default .bench_build) and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-registry --seed 1 --seconds 25 --trace 0
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
