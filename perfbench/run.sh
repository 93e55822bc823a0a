#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload replay-mail --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout: the Go build cache, the binary, and the traced run's
# spans. The build never touches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
