#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it. Everything the Go toolchain writes — build cache,
# temporary files, its own configuration — is kept inside .bench_build/,
# so a run touches nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
