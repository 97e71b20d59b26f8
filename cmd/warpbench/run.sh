#!/usr/bin/env bash
# Builds warpbench from source and runs it; BENCHMARK.json's command.
# Everything it writes (Go build cache, binary, scratch, traces) goes under
# .bench_build/ in the working directory, which is the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/warpbench" .)
# The commit is for the record; git must not look for a repository above the checkout.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$PWD") git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$build/warpbench" -commit "$commit" "$@"
