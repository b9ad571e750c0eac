#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it sits
# in and runs it with the given arguments, e.g.
#
#   bash servebench/run.sh --workload point-hot --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live under .bench_build/ at the root
# of the checkout, so the benchmark reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd servebench && go build -o ../.bench_build/servebench .)
exec .bench_build/servebench "$@"
