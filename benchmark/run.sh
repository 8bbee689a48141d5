#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run it from the repository root:
#
#	bash benchmark/run.sh --workload sweep --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay under
# the build directory ($CARGO_TARGET_DIR, default .bench_build) of the
# checkout, so nothing outside it is read or written besides the Go
# toolchain itself.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOMODCACHE=$out/gomod
# go build prints nothing on success; its errors go to stderr and stop the
# script, so a tree the benchmark cannot build never prints a result.
(cd "$(dirname "$0")" && go build -o "$out/loopbench" .)
exec "$out/loopbench" -workdir "$out/run" "$@"
