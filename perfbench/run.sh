#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# argument passes through to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload storm500 --seed 1 --seconds 28 --trace 0
#
# The Go build cache, temporary files, the binary and the per-run
# records all live under .bench_build/ in the checkout, so nothing is
# written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
