#!/usr/bin/env bash
# Builds pepcmark from the checkout this script sits in and runs it with
# the arguments given; pepcmark builds the pepcd it drives. Everything
# the builds and the run write (binaries, Go's build cache, temp files
# and telemetry counters, trace-<workload>.json) lands under .bench_build/
# in that checkout.
# BENCHMARK.json names this script as the benchmark's command.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/pepcd ]; then
	echo "run.sh: $root is not a checkout of the pepc module (no go.mod, no cmd/pepcd): nothing to measure" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local
go build -o "$out/pepcmark" ./bench/pepcmark
exec "$out/pepcmark" -out "$out" "$@"
