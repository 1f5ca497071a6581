#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash e2ebench/run.sh --workload fleet-jsq --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ at the repository root.
set -euo pipefail
dir=$(cd "$(dirname "$0")" && pwd)
out="$dir/../.bench_build/e2ebench"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$dir" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
