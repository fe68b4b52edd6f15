#!/usr/bin/env bash
# Builds the harness and soxqd from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs the harness
# with the given arguments from the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -C bench -o "$out/soxbench" .
go build -o "$out/soxqd" ./cmd/soxqd
exec "$out/soxbench" "$@"
