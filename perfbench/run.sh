#!/usr/bin/env bash
# Builds the benchmark and reorderd from this checkout's sources, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 12 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ in the checkout root, or under $CARGO_TARGET_DIR when that
# is set. Span dumps of traced runs go to <that directory>/perfbench-out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
cd "$root"

if [[ ! -f go.mod || ! -d internal || ! -d cmd/reorderd ]]; then
	echo "perfbench: $root holds no repro module sources to build" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$HOME"

go build -o "$out/reorderd" ./cmd/reorderd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -reorderd "$out/reorderd" -out "$out/perfbench-out" "$@"
