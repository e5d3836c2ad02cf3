#!/usr/bin/env bash
# Builds the benchmark and the uveserve daemon from this checkout's sources,
# then runs the benchmark. Run it from the repository root:
#
#   bash benchmark/run.sh --workload paper-figures --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch all stay under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build), so the run reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$root/benchmark"
go build -o "$build/uvebenchmark" .
go build -o "$build/uveserve" repro/cmd/uveserve
cd "$root"

exec "$build/uvebenchmark" --root "$root" --build "$build" "$@"
