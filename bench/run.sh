#!/usr/bin/env bash
# Build the benchmark harness from source and run it, from the root of the
# checkout, with the given flags. Everything the build writes stays inside the
# checkout, under .bench_build/ (ignored by git): the binary, the Go build
# cache, and what the go command would otherwise keep under $HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$here" -o "$out/mqbench" .
cd "$root"
exec "$out/mqbench" "$@"
