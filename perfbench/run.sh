#!/usr/bin/env bash
# Builds the SPARTAN benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run it from the checkout
# root:
#
#   bash perfbench/run.sh --workload compress-small --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build/ in the checkout. Outside a full
# checkout the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0 GOPROXY=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
