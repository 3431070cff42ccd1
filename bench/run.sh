#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload dd-read --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. The build cache and the binary live
# in .bench_build/ under the current directory, so nothing is written
# elsewhere. Without the rest of the repository next to bench/ the build
# fails and the script exits nonzero.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/pciebench" .)
exec "$out/pciebench" "$@"
