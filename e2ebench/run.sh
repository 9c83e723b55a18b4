#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash e2ebench/run.sh --workload simulate --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and the
# binary all stay under .bench_build/ in that root, and no module is
# fetched: the benchmark is a module of its own that replaces spacx with the
# checkout (../), so a directory without the program fails to build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOPROXY=off GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
