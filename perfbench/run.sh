#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in, then runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-mta --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and everything a run writes go under
# .bench_build/perfbench/ in the current directory. The build needs the
# repository's own module one directory up, so outside a checkout it fails
# and the script exits non-zero without printing a result.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
