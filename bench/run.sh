#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload bigrun --seed 0 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
