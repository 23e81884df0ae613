#!/bin/sh
# Builds the campaign benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   sh benchmark/run.sh --workload paper-cold --seed 0 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, temporary stores and
# traces. The build fails, and so does this script, when the parent
# module's source is missing.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go -C "$root/benchmark" build -o "$out/cloverbench" .
CLOVERBENCH_T0=$(date +%s%N) exec "$out/cloverbench" "$@"
