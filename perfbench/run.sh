#!/usr/bin/env bash
# Builds explaind and the load generator from this checkout, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload tree-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin" "$XDG_CONFIG_HOME/go/telemetry"
# With telemetry on (its default is "local"), the go command forks a detached
# child that outlives it; mode "off" keeps the go command from starting one.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/explaind" ./cmd/explaind >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -explaind "$out/bin/explaind" -out "$out" "$@"
