#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it sits in and runs
# it with the given arguments. Run it from the checkout root:
#
#   bash jasbench/run.sh --workload report-quick --seed 1 --seconds 20 --trace 0
#   bash jasbench/run.sh --workload all --seed 1
#
# Everything the build and the runs write lands under .bench_build/ in the
# current directory: the Go build cache, the binary, and the per-run
# results, spans and layer tables. The build uses only the local
# toolchain and the module's own sources (no module downloads).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

if ! (cd "$here" && go build -o "$out/bin/jasbench" .); then
	echo "jasbench: build failed" >&2
	exit 3
fi

# Record the commit only when the checkout itself is a git work tree.
JASBENCH_COMMIT=unknown
if top="$(git -C "$here/.." rev-parse --show-toplevel 2>/dev/null)" &&
	[ "$top" = "$(cd "$here/.." && pwd -P)" ]; then
	JASBENCH_COMMIT="$(git -C "$top" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export JASBENCH_COMMIT

exec "$out/bin/jasbench" "$@"
