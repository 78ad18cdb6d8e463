#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload gcn-fullbatch --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind stays under .bench_build/ in the
# checkout (binary and Go build cache). Build output goes to stderr, so the
# last line of stdout is always the benchmark's own result line.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" . 1>&2
exec "$out/perfbench" "$@"
