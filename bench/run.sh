#!/usr/bin/env bash
# The benchmark driver's entry point: build the benchmark from source inside
# the checkout, then run it with the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1). Everything the build and
# the run write stays under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -buildvcs=false -o "$build/vspbench" ./bench
exec "$build/vspbench" -dir "$build/out" "$@"
