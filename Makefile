# Developer entry points. `make ci` is what a PR must keep green.

.PHONY: ci build test race bench soak soak-short

ci:
	./scripts/ci.sh

build:
	go build ./...

test:
	go test ./...

# Race-detect the packages carrying the single-writer lock discipline.
race:
	go test -race ./internal/core/ ./internal/state/

# The absolute-number gate: four workloads end to end and layer by layer
# (bench/pepcmark/README.md). Figure shapes are asserted by
# `go test ./internal/experiments/`.
bench:
	go test -bench=Pipeline -benchmem -run='^$$' .
	bash bench/pepcmark/run.sh

# Chaos soak (DESIGN.md §4.12): `soak-short` is the race-enabled CI
# smoke (also run by `make ci`); `soak` is the full seeded run.
soak:
	./scripts/soak.sh

soak-short:
	./scripts/soak.sh -short
