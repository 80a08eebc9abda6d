#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, from the repository root:
#
#   bash bench/run.sh --workload gamma_min --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the binary, Go's build cache) stays under
# .bench_build/ in the checkout; the traced run writes its trace there too.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# The module needs nothing from the network or from outside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
