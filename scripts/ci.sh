#!/bin/sh
# ci.sh — the checks every PR must pass, in the order they fail fastest:
# formatting, build, vet, the full test suite, then the race detector over the
# packages that carry the single-writer lock discipline (internal/core's
# data/control split and parked data thread, internal/lane's socket loop,
# internal/state's lock modes, internal/pcef's copy-on-write rule
# table, installed by the control side while the data thread classifies
# snapshots, and internal/ring's lock-free burst rings with
# internal/pkt's pool, whose free list is the MPSC ring every lane frees
# into), so a concurrency regression is machine-caught rather than
# review-caught. Fuzz targets run their checked-in seeds; the data-path
# index model alone also gets a short bounded exploration, since its
# bucket probing and tombstone code are where a wrong or missed lookup
# would come from.
set -eu

cd "$(dirname "$0")/.."

# Formatting: every Go file is gofmt-clean (the benchmark's build
# directory holds no source of ours and is skipped).
echo "== gofmt -l ."
unformatted=$(gofmt -l . | grep -v '^\.bench_build/' || true)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "files above are not gofmt-clean" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The daemon links what it runs: the paper's figures and their baseline
# EPC stay in pepcbench.
echo "== pepcd dependencies"
if go list -deps ./cmd/pepcd | grep -E '^pepc/internal/(experiments|legacy)$'; then
	echo "pepcd depends on the packages above" >&2
	exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race internal/core internal/lane internal/state internal/sockio internal/hdr internal/pfcp internal/pcef internal/ring internal/pkt"
go test -race ./internal/core/ ./internal/lane/ ./internal/state/ ./internal/sockio/ ./internal/hdr/ ./internal/pfcp/ ./internal/pcef/ ./internal/ring/ ./internal/pkt/

# Every packet and control ring is the burst MPSC ring: producers
# reserve ranges with one CAS and the consumer releases bursts with one
# store, so a reservation or release bug loses or duplicates a slot.
# Four producers mixing single and batch enqueues into rings of 2, 4 and
# 8 slots against one consumer, 20 times under the detector.
echo "== MPSC ring stress x20 (-race)"
go test -race -run 'TestMPSCBurstStress|TestMPSCConcurrentFillHoldsCap' -count=20 ./internal/ring/

# The demux's route read takes no lock, so steering races migrations,
# registrations and exception-table writes by design: the window tests,
# the route model and the migration tests, 20 times under the detector.
echo "== steer vs migration x20 (-race)"
go test -race -run 'TestSteer|TestDemuxRoutes|TestMigration' -count=20 ./internal/core/

# One control writer per slice: four goroutines attach and detach through
# the node's entries on one slice (the allocator, free list and counters
# must come out exact), and the daemon takes four eNodeB associations and
# an SMF against one slice at once — 20 and 5 times under the detector.
echo "== concurrent control producers (-race)"
go test -race -run 'TestControlEntriesSerialize' -count=20 ./internal/core/
go test -race -run 'TestPepcdConcurrentControl' -count=5 ./cmd/pepcd/

# Cluster e2e under the race detector: a 2-node cluster taking an attach
# storm and live steering concurrently with add/remove/kill/recover
# membership changes, plus the checkpoint-restore conservation drill —
# the cross-node locking discipline (balancer flip, per-member attach
# serialization, directory) is machine-checked end to end.
echo "== cluster e2e (-race: churn + kill/recover conservation)"
go test -race -run 'TestClusterConcurrentChurn|TestKillRecoverConservation' -count=1 ./internal/cluster/

# The daemon under the race detector, all of it: lanes sharing slice
# rings, the PeerTable and conn stats across two queues (exact per-flow
# order, steered and hashed), the wake protocol (attach storm on a parked
# lane, ring hand-off, migration fence, 1 000 park/kick cycles), idle
# burn, drain-then-exit on SIGTERM and SIGINT, and the N4 loop.
echo "== pepcd under -race (lanes, wake, shutdown drain, N4)"
go test -race -count=1 ./cmd/pepcd/

# Update pushes race the data thread's park: a batch at the wake
# watermark must always reach a parked thread, a lone update must leave it
# parked, and N4 churn must kick it only once per watermark — 20 times
# under the detector.
echo "== update wake watermark x20 (-race)"
go test -race -run 'TestWakerNoLostWakeup|TestRunDataWake|TestN4ChurnLeavesDataThreadParked' -count=20 ./internal/core/

# Sync-before-process is a race the N4 test must win every time: the
# first burst after an establishment and the first probe after a
# modification, 20 times over.
echo "== pepcd N4 modify->probe x20"
go test -run 'TestPepcdN4' -count=20 ./cmd/pepcd/

# Chaos soak smoke: the short, time-bounded soak under the race detector
# (seeded fault plans; zero invariant violations required). See
# DESIGN.md §4.12 and scripts/soak.sh for the full harness.
echo "== soak smoke (scripts/soak.sh -short)"
./scripts/soak.sh -short

# Allocation guards: the per-packet path (batch lookups, steady-state
# forwarding, the slice's data pass, recycled signaling, degraded-user
# repair, the daemon's lane and the N4 loop's transport, the Maglev
# batch pick, the cluster's steer and the rings' bursts) must stay at 0
# allocs/op.
# Run them apart from the main suite with -count=1 so a cached pass can't
# mask a fresh allocation, and without -race (the race runtime allocates).
echo "== allocation guards (ZeroAlloc tests)"
go test -run 'ZeroAlloc' -count=1 ./internal/pkt/ ./internal/gtp/ ./internal/core/ ./internal/state/ ./internal/sockio/ ./internal/hdr/ ./internal/lane/ ./internal/lb/ ./internal/cluster/ ./internal/ring/

# Figure shapes: internal/experiments asserts the paper's relative
# claims (who wins, which way a curve bends) on regenerated figures; the
# full suite above ran them once, three more uncached passes catch a
# shape assertion that only holds most of the time.
echo "== figure shapes x3 (internal/experiments)"
go test -count=3 ./internal/experiments/

# Fuzz seed corpora: run every fuzz target's checked-in seeds once as
# plain tests (a failing seed is a regression in the parse-once codec
# surface or the indexes). Covers the GTP-U outer parser (incl. the
# fragmented-outer rejection seeds), the PFCP message/IE/flow-description
# codecs, the data-path indexes' model check (incl. the seeds that walk
# one bucket through overflow, tombstone, reuse and decay) and the S1-MME
# parsers pepcd exposes: SCTP packets and chunks, S1AP PDUs and NAS
# messages.
echo "== fuzz seeds"
go test -run 'Fuzz' -count=1 ./internal/gtp/ ./internal/pfcp/ ./internal/state/ ./internal/sctp/ ./internal/s1ap/ ./internal/nas/

# One bounded fuzz exploration, the only -fuzz step in CI: the
# data-path indexes against their map model for 20 s, since a probe
# that returns the wrong user or misses is a lost packet on the wire.
echo "== fuzz FuzzIndexesModel (20 s)"
go test -run '^$' -fuzz '^FuzzIndexesModel$' -fuzztime 20s ./internal/state/

# Examples: every program under examples/ runs once and must exit 0.
echo "== examples"
for ex in examples/*/; do
	echo "-- $ex"
	go run "./$ex" >/dev/null
done

# Dangling references: the second benchmark system, its ratchets and the
# ablation knobs only it exercised are gone, and so are the daemon's rx
# loop, egress loop, idle park and linger clock (the lane replaced them)
# and the in-process worker package with its dequeue budget (the slice's
# data pass replaced them), and the demux's per-user TEID/address maps
# (arithmetic steering replaced them; the state table's and the legacy
# baseline's maps of the same names are not meant), and the handle state
# layout with its arena, handle maps, layout knobs and the Figure 14
# population sweep (the pointer layout is the only one), and the
# mirrored per-direction data-path stages, limiter methods and latency
# accessors (one direction-parameterised stage replaced them) with the
# batch lookups the hot-half lookups superseded, and the slice control
# loop nobody started with its command channel and usage ticker (the
# slice's control lock replaced them) and the exported API nothing
# called (cluster ingress stamping, non-blocking batch reads, proxy
# policy readback and S6a breaker probe, point-list formatting), and the
# PCEF's filter VM and compiler (the direct 5-tuple filter in pcef is the
# only matcher; sockio's cBPF flow steering is unrelated and not meant)
# with the S6a fault hook and flow hashes nothing called, and the
# two-level (primary/secondary) table with its table mode, primary
# sizing, promotion queue, Figure 14 driver and the rekey update nothing
# pushed (the single table is the only one); nothing outside the project
# history (and the config test proving the JSON keys are rejected, and
# one comment in the benchmark, which is frozen) may still name them.
echo "== dangling-reference guard"
retired='benchdiff|BENCHDIFF_|bench/baseline|encap_mode|-fig8 pktsize'
retired="$retired|idlePark|IdlePark|runQueueEgress|runGTPURx|FlushExpired|-linger"
retired="$retired|internal/nf|nf\.Worker|HousekeepEvery|batch_size"
retired="$retired|d\.(byTEID|byIP)\b|demux\.(byTEID|byIP)\b"
retired="$retired|StateLayout|state_layout|LayoutHandle|LayoutPointer|NewArena|H32Map"
retired="$retired|NewHandleIndexes|NewTwoLevelHandles|Fig14Mode|fig14Population"
retired="$retired|uplinkChunk|downlinkChunk|uplinkRun|downlinkRun|\bAllowUplink\b|\bAllowDownlink(Run)?\b"
retired="$retired|DataPath(TEID|IP)Batch|\.LookupBatch\b|U(32|64)Map\.GetBatch|LatencyUplink|LatencyDownlink|ResetLatency"
retired="$retired|RunCtrl|ctrlCmds|loopRunning|RunUsageReporting|StampIngress|PollBatch|ClearPolicy|S6aAvailable|FormatPoints"
retired="$retired|internal/bpf|\bbpf\.|ClassifyPacket|(^|[^.[:alnum:]_])MustCompile|SetS6aFaults|FastHash"
retired="$retired|TwoLevel|two_level_table|primary_size|\bTableMode\b|PrimaryHint|PromoteDrops|promoteQ|OpRekey|\bFig14\b|fig14Point"
if grep -rnE -e "$retired" --include='*.go' --include='*.sh' --include='*.md' --include=Makefile \
	--exclude-dir=.git --exclude-dir=.bench_build . |
	grep -vE '^\./(CHANGES|ROADMAP|ISSUE)\.md:|^\./scripts/ci\.sh:|^\./internal/core/config_test\.go:' |
	grep -vE '^\./bench/pepcmark/probes\.go:[0-9]+:.*as uplinkRun makes'; then
	echo "retired surfaces still referenced (lines above)" >&2
	exit 1
fi

echo "CI green"
