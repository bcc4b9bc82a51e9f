#!/usr/bin/env bash
# Builds cmd/mrserved from the tree under test and the perfbench program into
# .bench_build/, then runs perfbench. Run from the repository root:
#
#	bash perfbench/run.sh --workload predict-miss --seed 1 --seconds 50 --trace 0
#
# The Go build cache and temp files live under .bench_build/ too, so a run
# reads and writes only inside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/mrserved" ./cmd/mrserved
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/mrserved" -out "$out" "$@"
