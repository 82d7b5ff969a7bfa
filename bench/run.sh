#!/bin/sh
# Builds and runs the wsndse benchmark from the repository root. Every
# build product and scratch file stays under .bench_build/ in the
# checkout, so the benchmark reads and writes nothing outside it.
#
#   bash bench/run.sh --workload ward-burst --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare runs/parent runs/change
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME and GOPATH keep the go command's telemetry counters and
# module cache in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C bench -o "$out/wsnbench" .
exec "$out/wsnbench" "$@"
