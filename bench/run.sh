#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Usage, from the repository
# root (the benchmark's own flags follow, see README.md):
#
#   bash bench/run.sh --workload sim-traced --seed 7 --seconds 12 --trace 0
#
# Everything the build writes stays inside the checkout, under .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# The go command keeps caches and telemetry counters under the user's home
# and config directories; point every one of them into the build directory.
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$here" && go build -o "$build/ebsbench" .) >&2

cd "$root"
exec "$build/ebsbench" "$@"
