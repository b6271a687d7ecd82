#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, temporary stores, traces) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset. Without the repository's sources
# next to it the build fails and the script exits non-zero.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}/e2ebench"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -root "$out" "$@"
