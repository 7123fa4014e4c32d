#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind stays in .bench_build at the root of
# the checkout: the binary, the Go build cache and the toolchain's
# scratch and configuration directories.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bpagg-benchmark"
mkdir -p "$build/tmp"

# Rebuild when the binary is missing or any Go source or go.mod of the
# checkout is newer than it.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(
		cd "$here"
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
			XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off \
			go build -o "$bin" .
	)
fi
exec "$bin" "$@"
