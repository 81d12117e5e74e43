#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the command of BENCHMARK.json.
# The module here (repro/benchmark) replaces its one dependency, module repro,
# with the directory above, so the build fails where that directory has no
# go.mod. Build cache and binary stay in .bench_build/ inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$build/cvbench" .)
exec "$build/cvbench" -dir "$here" "$@"
