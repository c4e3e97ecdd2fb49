#!/bin/sh
# soak.sh — chaos soak harness (DESIGN.md §4.12): attach/detach/handover/
# migration churn plus uplink traffic under seeded randomized faults
# (Diameter drop/delay/error, ring overflow, worker stalls) with a
# checkpoint + crash + RecoverFrom cycle every epoch, validating the
# conservation / bounded-drain / repair-backlog invariants at each epoch
# end.
#
# Usage:
#   scripts/soak.sh -short           time-bounded, race-enabled CI smoke
#   scripts/soak.sh [epochs [seed]]  full soak via pepcbench (default 5
#                                    epochs, seed 1); a failing seed
#                                    reproduces the identical fault stream.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-short" ]; then
	# The CI smoke: the short soak under the race detector, bounded so a
	# stall-injection pathology fails the run instead of hanging it.
	echo "== soak (-short): go test -race -run TestChaosSoakShort -timeout 120s"
	exec go test -race -run 'TestChaosSoakShort' -count=1 -timeout 120s ./internal/experiments/
fi

EPOCHS="${1:-5}"
SEED="${2:-1}"
echo "== soak: pepcbench -fig faults -faultepochs $EPOCHS -faultseed $SEED"
exec go run ./cmd/pepcbench -fig faults -faultepochs "$EPOCHS" -faultseed "$SEED"
