#!/usr/bin/env bash
# Builds the key-delivery benchmark from the checkout's sources and runs it.
#
#   bash keybench/run.sh --workload stream-cold --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "keybench: run from the repository root (no go.mod or internal/ in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -o "$out/keybench" .)
exec "$out/keybench" -out "$out" "$@"
