#!/usr/bin/env bash
# Builds the cost-ledger benchmark from the checkout it sits in and runs
# it with the arguments given. Everything the build and the run write
# (Go's build cache and temporary files included) stays under the
# checkout, in .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program there is nothing to measure: leave before any
# process is started.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: no go.mod or internal/ in $PWD: the program under test is not in this checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
# The go command starts a detached telemetry child that outlives it when
# its config dir is new and telemetry is not off; no run may leave a
# process behind.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/costledger" ./benchmark
exec "$build/costledger" "$@"
