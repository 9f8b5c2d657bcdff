#!/usr/bin/env bash
# Builds ccmd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash ccbench/run.sh --workload check-miss --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced-run spans go to
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off

go build -o "$out/ccmd" ./cmd/ccmd
(cd ccbench && go build -o "$out/ccbench" .)

spans=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace) [[ "${args[i + 1]:-0}" == 1 ]] && spans="$out/spans.json" ;;
	esac
done
exec "$out/ccbench" -ccmd "$out/ccmd" -spans "$spans" "$@"
