package core

import (
	"errors"
	"testing"

	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// TestTransferConservesQoSAndCharging is the migration conservation
// round-trip: a user with a tight AMBR spends most of its token budget
// on the source node, moves through ExportUser/ImportUser, and must
// arrive with exact counters, intact QoS configuration, a token level no
// higher than it left with (plus refill), and a closed charging interval
// — migrating must not be a way to reset a policing budget or double-
// bill an interval.
func TestTransferConservesQoSAndCharging(t *testing.T) {
	nodeA := NewNode(SliceConfig{ID: 1, UserHint: 64})
	nodeB := NewNode(SliceConfig{ID: 1, UserHint: 64})
	// 8000 bits/s → 1000 B/s refill, default burst 3000 bytes.
	const ambr = 8000
	const burst = 3000
	res, err := nodeA.AttachUser(0, AttachSpec{IMSI: 7, ENBAddr: 5, DownlinkTEID: 0x700,
		AMBRUplink: ambr, AMBRDownlink: ambr})
	if err != nil {
		t.Fatal(err)
	}
	sA := nodeA.Slice(0)
	sA.Data().SyncUpdates()

	// Spend 34 × 60 = 2040 of the 3000-byte uplink burst. All admitted:
	// the budget never goes negative.
	pool := pkt.NewPool(2048, 128)
	const pkts = 34
	const innerLen = 60
	for i := 0; i < pkts; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, sA.Config().CoreAddr, 80)
		sA.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	}
	drainEgress(sA)
	if got := sA.Data().Forwarded.Load(); got != pkts {
		t.Fatalf("forwarded %d of %d on source", got, pkts)
	}

	// Source-side level before export. Inline mode: no data worker runs,
	// the test is the only driver of both planes, so reading the
	// data-private limiter is safe here.
	ueA := sA.Control().Lookup(7)
	srcLv := ueA.Hot().Priv.Limiter.ExportLevels(sim.Now())
	if want := uint64(burst - pkts*innerLen); srcLv.AMBRUp < want || srcLv.AMBRUp > want+500 {
		t.Fatalf("source uplink level = %d, want ≈%d", srcLv.AMBRUp, want)
	}
	var cntA state.CounterState
	ueA.ReadCounters(func(c *state.CounterState) { cntA = *c })
	if cntA.UplinkPackets != pkts || cntA.UplinkBytes == 0 {
		t.Fatalf("source counters: %+v", cntA)
	}

	msg, err := nodeA.Scheduler().ExportUser(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sA.Users() != 0 {
		t.Fatalf("source still holds %d users", sA.Users())
	}

	if err := nodeB.Scheduler().ImportUser(msg, 0); err != nil {
		t.Fatal(err)
	}
	sB := nodeB.Slice(0)
	if sB.Users() != 1 {
		t.Fatalf("target holds %d users", sB.Users())
	}

	// Counters are exact, QoS configuration survived byte-for-byte.
	ueB := sB.Control().Lookup(7)
	var cntB state.CounterState
	ueB.ReadCounters(func(c *state.CounterState) { cntB = *c })
	if cntB != cntA {
		t.Fatalf("counters changed in transfer:\n src %+v\n dst %+v", cntA, cntB)
	}
	var csB state.ControlState
	ueB.ReadCtrl(func(c *state.ControlState) { csB = *c })
	if csB.AMBRUplink != ambr || csB.AMBRDownlink != ambr {
		t.Fatalf("AMBR changed in transfer: %d/%d", csB.AMBRUplink, csB.AMBRDownlink)
	}

	// Token conservation: the seeded level can only exceed the exported
	// one by refill (1000 B/s; 500 bytes ≈ half a second of slack), and
	// must stay far from the full burst a reset would produce.
	dstLv := ueB.Hot().Priv.Limiter.ExportLevels(sim.Now())
	if dstLv.AMBRUp < srcLv.AMBRUp {
		t.Fatalf("uplink budget shrank: src %d → dst %d", srcLv.AMBRUp, dstLv.AMBRUp)
	}
	if dstLv.AMBRUp > srcLv.AMBRUp+500 {
		t.Fatalf("uplink budget reset on migration: src %d → dst %d (burst %d)",
			srcLv.AMBRUp, dstLv.AMBRUp, burst)
	}
	if dstLv.AMBRDown < srcLv.AMBRDown || dstLv.AMBRDown > srcLv.AMBRDown+500 {
		t.Fatalf("downlink budget not conserved: src %d → dst %d", srcLv.AMBRDown, dstLv.AMBRDown)
	}

	// Charging: import re-seeds the collector baseline from the carried
	// counters, so the first interval on the target bills nothing — the
	// source's usage is not double-counted.
	cdr, err := sB.Control().CollectUsage(7, sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	if cdr.Delta.Total() != 0 || cdr.Delta.UplinkPackets != 0 {
		t.Fatalf("import double-bills: delta %+v", cdr.Delta)
	}

	// First packet on the target triggers rebuildPriv (fast-view epoch
	// mismatch); configurePreserving must keep the seeded tokens rather
	// than rebuilding a full bucket.
	sB.Data().SyncUpdates()
	b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, sB.Config().CoreAddr, 80)
	sB.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	drainEgress(sB)
	if sB.Data().Forwarded.Load() != 1 {
		t.Fatal("post-import traffic failed on target")
	}
	afterLv := ueB.Hot().Priv.Limiter.ExportLevels(sim.Now())
	if afterLv.AMBRUp > dstLv.AMBRUp+400 {
		t.Fatalf("rebuild reset seeded tokens: %d → %d", dstLv.AMBRUp, afterLv.AMBRUp)
	}
}

// TestMigrationOntoTakenIMSIKeepsUser: with the IMSI already attached on
// the target, installing there fails after the user has left the source.
// MigrateUser must report ErrUserExists and put the user back on the
// source, still forwarding, with its charging counters and the token
// levels it had spent down to — not report success with the user served
// nowhere.
func TestMigrationOntoTakenIMSIKeepsUser(t *testing.T) {
	n := NewNode(SliceConfig{ID: 1, UserHint: 64}, SliceConfig{ID: 2, UserHint: 64})
	res, err := n.AttachUser(0, AttachSpec{IMSI: 7, ENBAddr: 5, DownlinkTEID: 0x700,
		AMBRUplink: 8000, AMBRDownlink: 8000}) // 1000 B/s refill, 3000-byte burst
	if err != nil {
		t.Fatal(err)
	}
	src := n.Slice(0)
	src.Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	for i := 0; i < 20; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, src.Config().CoreAddr, 80)
		src.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	}
	drainEgress(src)
	ue := src.Control().Lookup(7)
	lv := ue.Hot().Priv.Limiter.ExportLevels(sim.Now())
	var cnt state.CounterState
	ue.ReadCounters(func(c *state.CounterState) { cnt = *c })

	if _, err := n.Slice(1).Control().Attach(AttachSpec{IMSI: 7}); err != nil {
		t.Fatal(err)
	}
	if err := n.Scheduler().MigrateUser(7, 0, 1); !errors.Is(err, ErrUserExists) {
		t.Fatalf("migration onto a taken IMSI: %v, want ErrUserExists", err)
	}
	if ok, failed := n.Scheduler().Migrations.Load(), n.Scheduler().MigrationsFailed.Load(); ok != 0 || failed != 1 {
		t.Fatalf("migrations %d, failed %d; want 0 and 1", ok, failed)
	}

	back := src.Control().Lookup(7)
	if back == nil {
		t.Fatal("user lost: on neither slice")
	}
	var cntBack state.CounterState
	back.ReadCounters(func(c *state.CounterState) { cntBack = *c })
	if cntBack != cnt || cnt.UplinkPackets != 20 {
		t.Fatalf("counters not conserved:\n before %+v\n after  %+v", cnt, cntBack)
	}
	// The levels can exceed what the user left with only by refill
	// (500 bytes is half a second), never by a reset to the full burst.
	lvBack := back.Hot().Priv.Limiter.ExportLevels(sim.Now())
	if lvBack.AMBRUp < lv.AMBRUp || lvBack.AMBRUp > lv.AMBRUp+500 || lvBack.AMBRDown < lv.AMBRDown || lvBack.AMBRDown > lv.AMBRDown+500 {
		t.Fatalf("token levels not conserved: %+v → %+v", lv, lvBack)
	}

	// The demux still steers the user to the source, which forwards.
	src.Data().SyncUpdates()
	n.SteerUplink(buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, src.Config().CoreAddr, 80))
	one := make([]*pkt.Buf, 1)
	if src.Uplink.DequeueBatch(one) != 1 {
		t.Fatal("uplink not steered to the source")
	}
	src.Data().ProcessUplinkBatch(one, sim.Now())
	drainEgress(src)
	if got := src.Data().Forwarded.Load(); got != 21 {
		t.Fatalf("source forwarded %d, want 21", got)
	}
}

// TestTransferWithoutLevelsStartsFull covers the compatibility path: a
// snapshot whose levels section is absent (Valid=false — an old-format
// message or a fence timeout) installs with no pre-seeded limiter, and
// the data plane's first rebuild grants the configured full burst.
func TestTransferWithoutLevelsStartsFull(t *testing.T) {
	nodeB := NewNode(SliceConfig{ID: 1, UserHint: 64})
	cs := state.ControlState{
		IMSI: 9, UplinkTEID: 0x1234, UEAddr: 0x0a000009,
		ENBAddr: 5, DownlinkTEID: 0x900,
		AMBRUplink: 8000, AMBRDownlink: 8000,
	}
	cs.AddBearer(state.Bearer{EBI: 5, QCI: 9})
	var msg StateTransferMessage
	msg.IMSI = 9
	if _, err := state.MarshalSnapshot(msg.Data[:], &cs, &state.CounterState{}); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Scheduler().ImportUser(msg, 0); err != nil {
		t.Fatal(err)
	}
	ueB := nodeB.Slice(0).Control().Lookup(9)
	if ueB == nil {
		t.Fatal("user not installed")
	}
	if ueB.Hot().Priv.Limiter.Configured() {
		t.Fatal("limiter pre-seeded from an invalid levels section")
	}
	// Data path builds the limiter lazily with a full bucket.
	nodeB.Slice(0).Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	b := buildUplink(pool, cs.UplinkTEID, cs.UEAddr, 5, nodeB.Slice(0).Config().CoreAddr, 80)
	nodeB.Slice(0).Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	drainEgress(nodeB.Slice(0))
	if nodeB.Slice(0).Data().Forwarded.Load() != 1 {
		t.Fatal("traffic failed after levels-less import")
	}
}
