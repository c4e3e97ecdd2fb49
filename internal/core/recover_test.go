package core

import (
	"bytes"
	"testing"

	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// crashScenario builds a slice, attaches users [1..n], syncs and
// checkpoints it — the common prologue of the recovery tests. The
// returned buffer is the last checkpoint; everything the test does to
// the slice afterwards is "post-checkpoint" work that must be recovered
// from the surviving in-memory queues.
func crashScenario(t *testing.T, cfg SliceConfig, n int) (*Slice, *bytes.Buffer) {
	t.Helper()
	s := NewSlice(cfg)
	for i := 1; i <= n; i++ {
		if _, err := s.Control().Attach(AttachSpec{
			IMSI: uint64(i), ENBAddr: uint32(i), DownlinkTEID: uint32(0x100 + i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Data().SyncUpdates()
	var buf bytes.Buffer
	if got, err := s.Checkpoint(&buf); err != nil || got != n {
		t.Fatalf("checkpoint: %d %v", got, err)
	}
	return s, &buf
}

// The tentpole recovery invariant: a slice rebuilt from its checkpoint
// plus the surviving update queue loses no post-checkpoint attach, no
// completed detach, and no counter written to a queue-referenced user —
// and keeps no stale per-user state (a user detached before the crash
// misses on the data path).
func TestRecoverFromCheckpointPlusQueue(t *testing.T) {
	src, ckp := crashScenario(t, SliceConfig{ID: 1, UserHint: 256}, 50)

	// Post-checkpoint churn, never synced to the data plane: the update
	// queue still holds all of it when the slice "crashes".
	for i := 51; i <= 60; i++ {
		if _, err := src.Control().Attach(AttachSpec{
			IMSI: uint64(i), ENBAddr: uint32(i), DownlinkTEID: uint32(0x100 + i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var detached [5][2]uint32 // users 1-5's TEID and UE address
	for i := 1; i <= 5; i++ {
		teid, addr := ueKeys(src.Control().Lookup(uint64(i)))
		detached[i-1] = [2]uint32{teid, addr}
		if err := src.Control().Detach(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// An attach event on user 20 puts its context back in the queue, so
	// counters written after the checkpoint must survive exactly.
	src.Control().Lookup(20).WriteCounters(func(c *state.CounterState) {
		c.UplinkBytes = 987654
	})
	if err := src.Control().AttachEvent(20); err != nil {
		t.Fatal(err)
	}

	// Crash: the slice stops being driven; its heap survives.
	dst := NewSlice(SliceConfig{ID: 1, UserHint: 256})
	rep, err := dst.RecoverFrom(bytes.NewReader(ckp.Bytes()), src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 50 || rep.Replayed != 10 || rep.CompletedDetaches != 5 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Refreshed < 1 {
		t.Fatalf("user 20 refresh not replayed: %+v", rep)
	}
	if dst.Users() != 55 {
		t.Fatalf("users = %d, want 55", dst.Users())
	}
	for i := 1; i <= 5; i++ {
		if dst.Control().Lookup(uint64(i)) != nil {
			t.Fatalf("detached user %d resurrected", i)
		}
	}

	// No stale per-user state: after a sync, the detached users' keys
	// miss in both directions.
	dst.Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	for _, k := range detached {
		up := buildUplink(pool, k[0], k[1], 1, dst.Config().CoreAddr, 80)
		dst.Data().ProcessUplinkBatch([]*pkt.Buf{up}, sim.Now())
		dst.Data().ProcessDownlinkBatch([]*pkt.Buf{buildDownlink(pool, k[1], 443)}, sim.Now())
	}
	if m, f := dst.Data().Missed.Load(), dst.Data().Forwarded.Load(); m != 2*uint64(len(detached)) || f != 0 {
		t.Fatalf("detached users: missed=%d forwarded=%d, want %d and 0", m, f, 2*len(detached))
	}

	// No aliasing: the recovered context is a fresh snapshot install,
	// not the crashed slice's pointer.
	if dst.Control().Lookup(55) == src.Control().Lookup(55) {
		t.Fatal("recovered slice aliases a crashed-slice context")
	}

	// Counter loss is bounded by the sync window: user 20 appeared in
	// the surviving queue, so its post-checkpoint counters are exact.
	var cnt state.CounterState
	dst.Control().Lookup(20).ReadCounters(func(c *state.CounterState) { cnt = *c })
	if cnt.UplinkBytes != 987654 {
		t.Fatalf("refreshed counters lost: %d", cnt.UplinkBytes)
	}

	// A post-checkpoint attach is immediately forwardable.
	var cs state.ControlState
	dst.Control().Lookup(57).ReadCtrl(func(c *state.ControlState) { cs = *c })
	b := buildUplink(pool, cs.UplinkTEID, cs.UEAddr, 1, dst.Config().CoreAddr, 80)
	dst.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if dst.Data().Forwarded.Load() != 1 {
		t.Fatalf("replayed attach not forwardable: missed=%d", dst.Data().Missed.Load())
	}
	drainEgress(dst)
}

// A user rekeyed after the checkpoint — detached and re-attached under
// new identifiers, the detach already synced — leaves a surviving insert
// whose keys the checkpoint copy does not have. The restored slice must
// serve the new TEID and must not leave the stale one resolvable.
func TestRecoverReplaysRekey(t *testing.T) {
	src, ckp := crashScenario(t, SliceConfig{ID: 1, UserHint: 64}, 10)

	oldTEID, _ := ueKeys(src.Control().Lookup(4))
	if err := src.Control().Detach(4); err != nil {
		t.Fatal(err)
	}
	src.Data().SyncUpdates()
	res, err := src.Control().Attach(AttachSpec{IMSI: 4, ENBAddr: 4, DownlinkTEID: 0x104})
	if err != nil {
		t.Fatal(err)
	}
	newTEID := res.UplinkTEID
	if newTEID == oldTEID {
		t.Fatal("re-attach reused the old TEID; the scenario needs new identifiers")
	}

	dst := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	rep, err := dst.RecoverFrom(bytes.NewReader(ckp.Bytes()), src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refreshed != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if dst.Users() != 10 {
		t.Fatalf("users = %d", dst.Users())
	}
	if dst.cp.LookupTEID(newTEID) == nil {
		t.Fatal("rekeyed TEID not resolvable after recovery")
	}
	if dst.cp.LookupTEID(oldTEID) != nil {
		t.Fatal("stale pre-rekey TEID still resolvable")
	}
}

// Satellite: crash mid-DrainSignaling with a non-empty signaling ring.
// The event the crashed control thread already executed (detach of user
// 7, sitting in the update queue as a delete) must complete exactly
// once; the events still queued (detach of user 9, attach event on user
// 8) are adopted and run by the new control thread — no double replay,
// no lost detach.
func TestRecoverAdoptsQueuedSignals(t *testing.T) {
	src, ckp := crashScenario(t, SliceConfig{ID: 1, UserHint: 64}, 20)

	src.Control().EnqueueSignal(SigEvent{Kind: SigDetach, IMSI: 7})
	src.Control().EnqueueSignal(SigEvent{Kind: SigDetach, IMSI: 9})
	src.Control().EnqueueSignal(SigEvent{Kind: SigAttachEvent, IMSI: 8})
	// The control thread gets through exactly one event, then crashes:
	// user 7's detach has executed (its delete is in the update queue),
	// the other two events are still in the ring.
	if n := src.Control().DrainSignaling(1); n != 1 {
		t.Fatalf("drained %d", n)
	}
	if src.Control().Lookup(7) != nil {
		t.Fatal("precondition: detach 7 should have executed")
	}

	dst := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	rep, err := dst.RecoverFrom(bytes.NewReader(ckp.Bytes()), src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompletedDetaches != 1 {
		t.Fatalf("completed detach not applied once: %+v", rep)
	}
	if rep.SignalsAdopted != 2 {
		t.Fatalf("adopted = %d, want 2", rep.SignalsAdopted)
	}
	if dst.Control().Lookup(7) != nil {
		t.Fatal("completed detach replayed as attach (user 7 resurrected)")
	}
	// Users: 20 restored - 1 completed detach; the queued detach has not
	// run yet.
	if dst.Users() != 19 {
		t.Fatalf("users before drain = %d", dst.Users())
	}

	// The new control thread drains the adopted ring: the queued detach
	// executes once, the attach event re-arms user 8 without creating a
	// second instance.
	attachesBefore := dst.Control().Stats().Attaches
	for dst.Control().DrainSignaling(0) > 0 {
	}
	dst.Data().SyncUpdates()
	if dst.Control().Lookup(9) != nil {
		t.Fatal("queued detach lost")
	}
	if dst.Users() != 18 {
		t.Fatalf("users after drain = %d", dst.Users())
	}
	if got := dst.Control().Stats().Attaches - attachesBefore; got != 1 {
		t.Fatalf("attach event replayed %d times", got)
	}
}

// Recovery with no surviving slice (cold standby) degrades to a plain
// checkpoint restore.
func TestRecoverWithoutSurvivor(t *testing.T) {
	_, ckp := crashScenario(t, SliceConfig{ID: 1, UserHint: 64}, 15)
	dst := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	rep, err := dst.RecoverFrom(bytes.NewReader(ckp.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 15 || rep.Replayed != 0 || rep.SignalsAdopted != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if dst.Users() != 15 {
		t.Fatalf("users = %d", dst.Users())
	}
}
