#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build in the current directory. Build errors go to stderr and
# fail the run before it prints anything.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS="-mod=readonly -buildvcs=false" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
