#!/usr/bin/env bash
# Builds cmd/aarohid and the benchmark from the checkout's sources, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload storm --seed 1 --seconds 16 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/aarohid" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the repository root (needs go.mod, cmd/aarohid and perfbench/)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
    GOTMPDIR="$out/tmp" GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
    GOWORK=off GOTELEMETRY=off
go build -o "$out/bin/aarohid" ./cmd/aarohid
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/aarohid" "$@"
