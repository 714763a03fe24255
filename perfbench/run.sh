#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload profile|serve|ingest --seed N --seconds S --trace 0|1
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
MOCHY_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export MOCHY_COMMIT
cd "$root"
exec "$out/perfbench" "$@"
