#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig3-pool --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory, including the Go build cache and the go
# command's user configuration (telemetry counters).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d perfbench ]]; then
	echo "perfbench: run from the root of the fdw module (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
