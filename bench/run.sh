#!/usr/bin/env bash
# Builds uubench from the checkout this script belongs to and runs it with
# the given flags, e.g.
#
#   bash bench/run.sh --workload crowd-sum --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the run's disk data all stay under
# .bench_build at the checkout root, so nothing is read or written outside
# the checkout apart from the Go toolchain itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/uubench" ./uubench)
exec "$out/uubench" -work "$out/uubench-data" "$@"
