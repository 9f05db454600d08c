#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the repository root. Every Go cache and the binary stay inside the
# checkout, under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: the repository's sources are missing next to perfbench/" >&2
	exit 2
fi
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
