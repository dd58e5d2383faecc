#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload cold-industrial --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache)
# lands under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout. Outside a full checkout (no go.mod above perfbench) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
