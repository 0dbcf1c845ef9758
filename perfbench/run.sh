#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload cold-synth --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traces stay under .bench_build
# (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go -C perfbench build -buildvcs=false -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" -outdir "$out/perfbench" "$@"
