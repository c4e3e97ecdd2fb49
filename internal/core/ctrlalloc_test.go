package core

import (
	"testing"

	"pepc/internal/pkt"
	"pepc/internal/sim"
)

// TestAttachDetachCycleZeroAlloc: once the free list is warm, a full
// attach→detach cycle (including the data-plane sync that applies both
// index updates) allocates nothing — the context, its identifiers and
// the index slots are all recycled. The node's entries add the slice's
// control lock and the demux registration, and allocate nothing either.
func TestAttachDetachCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec := AttachSpec{
		IMSI: 7, ENBAddr: pkt.IPv4Addr(192, 168, 0, 1), DownlinkTEID: 9,
		ECGI: 7, TAI: 3, AMBRUplink: 8 * 10_000_000,
	}
	for _, tc := range []struct {
		name   string
		attach func(*Node) error
		detach func(*Node) error
	}{
		{"slice", func(n *Node) error {
			_, err := n.Slice(0).Control().Attach(spec)
			return err
		}, func(n *Node) error { return n.Slice(0).Control().Detach(7) }},
		{"node", func(n *Node) error {
			_, err := n.AttachUser(0, spec)
			return err
		}, func(n *Node) error { return n.DetachUser(0, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNode(SliceConfig{ID: 1, UserHint: 64})
			s := n.Slice(0)
			cycle := func() {
				if err := tc.attach(n); err != nil {
					t.Fatal(err)
				}
				if err := tc.detach(n); err != nil {
					t.Fatal(err)
				}
				s.Data().SyncUpdates()
			}
			// Warm: first cycles allocate the context, the free list
			// backing array and map growth; the fence needs two syncs
			// before reuse kicks in.
			for i := 0; i < 64; i++ {
				cycle()
			}
			if got := s.Control().Stats().Recycles; got == 0 {
				t.Fatal("free list inactive after warmup")
			}
			if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
				t.Fatalf("attach→detach cycle allocates %.1f allocs/op, want 0", avg)
			}
		})
	}
}

// TestMaintainZeroAlloc: the control thread's periodic housekeeping —
// draining promotion requests into data-plane updates and applying them
// — is allocation-free in steady state.
func TestMaintainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewSlice(SliceConfig{ID: 1, TableMode: TableTwoLevel, UserHint: 64})
	attachOne(t, s, 42)
	ue := s.Control().Lookup(42)
	now := sim.Now()
	round := func() {
		s.Control().requestPromotion(ue)
		s.Control().Maintain(now, 0)
		s.Data().SyncUpdates()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("Maintain round allocates %.1f allocs/op, want 0", avg)
	}
}

// TestBatchedSignalingZeroAlloc: the enqueue→drain procedure pipeline
// (handover and attach-event batches, including the data-plane update
// push and sync) runs without allocating.
func TestBatchedSignalingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	for imsi := uint64(1); imsi <= 8; imsi++ {
		attachOne(t, s, imsi)
	}
	cp := s.Control()
	round := func() {
		for imsi := uint64(1); imsi <= 8; imsi++ {
			cp.EnqueueSignal(SigEvent{Kind: SigS1Handover, IMSI: imsi,
				ENBAddr: pkt.IPv4Addr(192, 168, 1, 1), DownlinkTEID: 0x9000, ECGI: 40})
			cp.EnqueueSignal(SigEvent{Kind: SigAttachEvent, IMSI: imsi})
		}
		for cp.DrainSignaling(0) > 0 {
		}
		s.Data().SyncUpdates()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("batched signaling round allocates %.1f allocs/op, want 0", avg)
	}
	// The drain actually executed procedures (not silently dropped).
	st := cp.Stats()
	if st.Handovers == 0 || st.SigDrops != 0 {
		t.Fatalf("unexpected drain stats: %+v", st)
	}
}
