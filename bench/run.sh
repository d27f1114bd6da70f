#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it there. Everything the build and the run write — Go's build cache
# and temp files, database files, spans — stays under that directory: the
# driver's contract allows writes nowhere else. Working database files are
# removed when a run ends; the build cache and the binary stay, because the
# driver makes some ninety runs in one checkout and only the first may take
# the time a cold build does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/dsperf" .)
exec "$build/dsperf" -dir "$build/work" -spans "$build/spans.jsonl" "$@"
