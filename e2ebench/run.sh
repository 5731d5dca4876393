#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of
# the checkout. Arguments pass through to the binary:
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the stores the run creates all live
# under .bench_build/ in the checkout, which the run creates if absent.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" -data "$out" "$@"
