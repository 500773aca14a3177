#!/usr/bin/env bash
# Builds ./bench (package main of module repro) into .bench_build/ at the
# root of the checkout and runs it there, passing every argument through:
#
#   bash bench/run.sh --workload lan3_cons --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh all
#   bash bench/run.sh repeat
#
# It is `go run ./bench` with two differences the benchmark contract asks
# for: the measured process is the benchmark itself, not a child of the go
# tool, and the build cache and temporaries stay inside the checkout (the
# driver allows no write outside it, and may give no $HOME to cache in).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
