#!/usr/bin/env bash
# Builds lesmbench from source and runs it with the given flags, from the
# repository root:
#
#   bash cmd/lesmbench/run.sh -workload infer -seed 1 -seconds 7 -trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, the toolchain's
# config and temporary files, and the run's snapshots.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/lesmbench" .)
exec "$build/lesmbench" "$@"
