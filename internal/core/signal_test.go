package core

import (
	"testing"

	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// applyInline executes a signaling event through the per-procedure entry
// points, one event at a time.
func applyInline(cp *ControlPlane, ev SigEvent) {
	switch ev.Kind {
	case SigAttachEvent:
		_ = cp.AttachEvent(ev.IMSI)
	case SigS1Handover:
		_ = cp.S1Handover(ev.IMSI, ev.ENBAddr, ev.DownlinkTEID, ev.ECGI)
	case SigDetach:
		_ = cp.Detach(ev.IMSI)
	}
}

// TestDrainSignalingMatchesInline: the batched drain must be
// observationally equivalent to executing the same event sequence through
// the inline procedure calls — same surviving users, same tunnel state,
// same event counters, same data-plane behaviour.
func TestDrainSignalingMatchesInline(t *testing.T) {
	// The subtest is named for the single table, the only one.
	t.Run("single", func(t *testing.T) {
		mk := func(id int) *Slice {
			s := NewSlice(SliceConfig{ID: id, UserHint: 64})
			for imsi := uint64(1); imsi <= 16; imsi++ {
				attachOne(t, s, imsi)
			}
			return s
		}
		inline, batched := mk(1), mk(2)

		// Mixed sequence: runs of handovers and attach events with
		// detaches interleaved, including events for unknown users.
		var evs []SigEvent
		for i := uint64(0); i < 48; i++ {
			imsi := 1 + i%16
			switch i % 6 {
			case 0, 3:
				evs = append(evs, SigEvent{Kind: SigS1Handover, IMSI: imsi,
					ENBAddr: pkt.IPv4Addr(192, 168, 1, byte(i)), DownlinkTEID: 0x9000 + uint32(i), ECGI: 40 + uint32(i)})
			case 1, 4:
				evs = append(evs, SigEvent{Kind: SigAttachEvent, IMSI: imsi})
			case 2:
				evs = append(evs, SigEvent{Kind: SigAttachEvent, IMSI: 999}) // unknown
			case 5:
				if i > 24 {
					evs = append(evs, SigEvent{Kind: SigDetach, IMSI: imsi})
				}
			}
		}

		for _, ev := range evs {
			applyInline(inline.Control(), ev)
		}
		for _, ev := range evs {
			if !batched.Control().EnqueueSignal(ev) {
				t.Fatal("signal ring overflowed")
			}
		}
		for batched.Control().DrainSignaling(0) > 0 {
		}
		inline.Data().SyncUpdates()
		batched.Data().SyncUpdates()

		is, bs := inline.Control().Stats(), batched.Control().Stats()
		if is.Attaches != bs.Attaches || is.Handovers != bs.Handovers || is.Detaches != bs.Detaches {
			t.Fatalf("counters diverge: inline=%+v batched=%+v", is, bs)
		}
		var ic, bc state.ControlState
		for imsi := uint64(1); imsi <= 16; imsi++ {
			iu := inline.Control().Lookup(imsi)
			bu := batched.Control().Lookup(imsi)
			if (iu == nil) != (bu == nil) {
				t.Fatalf("imsi %d: inline present=%v batched present=%v", imsi, iu != nil, bu != nil)
			}
			if iu == nil {
				continue
			}
			iu.ReadCtrlSnapshot(&ic)
			bu.ReadCtrlSnapshot(&bc)
			if ic.ENBAddr != bc.ENBAddr || ic.DownlinkTEID != bc.DownlinkTEID ||
				ic.ECGI != bc.ECGI || ic.Attached != bc.Attached || ic.TAICount != bc.TAICount {
				t.Fatalf("imsi %d control state diverges:\ninline:  %+v\nbatched: %+v", imsi, ic, bc)
			}
		}

		// Detached users are gone from the data path too.
		pool := pkt.NewPool(2048, 64)
		bu := batched.Control().Lookup(2) // 2 was never detached (i%6==5 hits odd offsets)
		if bu == nil {
			t.Fatal("expected imsi 2 to survive")
		}
		bu.ReadCtrlSnapshot(&bc)
		b := buildUplink(pool, bc.UplinkTEID, bc.UEAddr, pkt.IPv4Addr(192, 168, 0, 1), batched.Config().CoreAddr, 80)
		batched.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
		if batched.Data().Forwarded.Load() != 1 {
			t.Fatalf("surviving user not forwarded (missed=%d)", batched.Data().Missed.Load())
		}
		drainEgress(batched)
	})
}

// TestEnqueueSignalBackpressure: a full ring rejects events, counts the
// drops, and recovers after a drain.
func TestEnqueueSignalBackpressure(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 16})
	cp := s.Control()
	const extra = 10
	rejected := 0
	for i := 0; i < sigRingCap+extra; i++ {
		if !cp.EnqueueSignal(SigEvent{Kind: SigAttachEvent, IMSI: 999}) {
			rejected++
		}
	}
	if rejected != extra {
		t.Fatalf("rejected %d enqueues, want %d", rejected, extra)
	}
	if got := cp.Stats().SigDrops; got != extra {
		t.Fatalf("SigDrops = %d, want %d", got, extra)
	}
	if got := cp.SignalBacklog(); got != sigRingCap {
		t.Fatalf("backlog = %d, want %d", got, sigRingCap)
	}
	drained := 0
	for {
		n := cp.DrainSignaling(0)
		if n == 0 {
			break
		}
		drained += n
	}
	if drained != sigRingCap {
		t.Fatalf("drained %d, want %d", drained, sigRingCap)
	}
	if !cp.EnqueueSignal(SigEvent{Kind: SigAttachEvent, IMSI: 999}) {
		t.Fatal("enqueue after drain rejected")
	}
}

// TestAttachRecyclesDetachedContext: after the data-plane sync fence
// passes, an attach reuses the retired context and its identifier pair
// instead of allocating fresh ones.
func TestAttachRecyclesDetachedContext(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	res1 := attachOne(t, s, 100)
	if err := s.Control().Detach(100); err != nil {
		t.Fatal(err)
	}
	// Two sync cycles clear the fence (delete applied, no in-flight batch).
	s.Data().SyncUpdates()
	s.Data().SyncUpdates()
	res2 := attachOne(t, s, 200)
	if got := s.Control().Stats().Recycles; got != 1 {
		t.Fatalf("Recycles = %d, want 1", got)
	}
	if res2.UplinkTEID != res1.UplinkTEID || res2.UEAddr != res1.UEAddr {
		t.Fatalf("identifiers not recycled: got teid=%#x addr=%#x, want teid=%#x addr=%#x",
			res2.UplinkTEID, res2.UEAddr, res1.UplinkTEID, res1.UEAddr)
	}
	// The recycled context carries no stale state.
	var cs state.ControlState
	s.Control().Lookup(200).ReadCtrlSnapshot(&cs)
	if cs.IMSI != 200 || !cs.Attached || cs.BearerCount != 1 {
		t.Fatalf("recycled context state wrong: %+v", cs)
	}
	_, cnt := s.Control().Lookup(200).Snapshot()
	if cnt != (state.CounterState{}) {
		t.Fatalf("recycled context kept counters: %+v", cnt)
	}

	// Before the fence clears, the context must NOT be reused.
	if err := s.Control().Detach(200); err != nil {
		t.Fatal(err)
	}
	res3 := attachOne(t, s, 300) // no intervening double sync before Attach
	if res3.UplinkTEID == res2.UplinkTEID {
		t.Fatal("context recycled before the data-plane fence cleared")
	}
}

// TestAssignedAttachRecyclesContextOnly: an attach with caller-assigned
// identifiers (N4, the cluster) reuses a retired context but never a
// parked identifier pair, and leaves a retiree whose pair the slice's own
// allocator issued for the next allocator attach, which gets that pair
// back.
func TestAssignedAttachRecyclesContextOnly(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	cp := s.Control()
	assigned := func(imsi uint64, teid uint32) {
		t.Helper()
		res, err := cp.Attach(AttachSpec{IMSI: imsi, ENBAddr: 1, DownlinkTEID: 2,
			AssignedUplinkTEID: teid, AssignedUEAddr: pkt.IPv4Addr(45, 0, 0, byte(imsi))})
		if err != nil || res.UplinkTEID != teid {
			t.Fatalf("assigned attach %d: teid %#x, err %v", imsi, res.UplinkTEID, err)
		}
		s.Data().SyncUpdates()
	}
	fence := func() { s.Data().SyncUpdates(); s.Data().SyncUpdates() }

	assigned(1, 0x5E00_0001)
	cp.Detach(1)
	fence()
	assigned(2, 0x5E00_0002)
	if got := cp.Stats().Recycles; got != 1 {
		t.Fatalf("Recycles = %d after an assigned attach behind an assigned detach, want 1", got)
	}

	issued := attachOne(t, s, 3)
	cp.Detach(3)
	fence()
	assigned(4, 0x5E00_0004)
	if got := cp.Stats().Recycles; got != 1 {
		t.Fatalf("Recycles = %d: an assigned attach took a retiree whose pair the allocator issued", got)
	}
	if res := attachOne(t, s, 5); res.UplinkTEID != issued.UplinkTEID || res.UEAddr != issued.UEAddr {
		t.Fatalf("allocator attach got %#x/%#x, want the parked pair %#x/%#x back",
			res.UplinkTEID, res.UEAddr, issued.UplinkTEID, issued.UEAddr)
	}
}
