#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash gmbench/run.sh --workload train-lro --seed 1 --seconds 20 --trace 0
#   bash gmbench/run.sh compare base.txt change.txt
#
# Run it from the repository root. Every build artefact, cache and trace
# file stays under .bench_build in that directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off CGO_ENABLED=0 GOFLAGS= GO111MODULE=on

(cd "$here" && go build -o "$build/gmbench" .) >&2
exec "$build/gmbench" "$@"
