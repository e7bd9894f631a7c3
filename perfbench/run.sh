#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced runs' span trees stay under
# .bench_build/ in the checkout. Without the repository's go.mod next to
# perfbench/ it exits 2 before building.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
