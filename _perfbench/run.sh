#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash _perfbench/run.sh --workload stat_sweep --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# profiles) goes under .bench_build at the repository root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
