package core

import (
	"testing"
	"time"

	"pepc/internal/fault"
	"pepc/internal/hss"
	"pepc/internal/pcrf"
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

// TestPolicedFirstPacketZeroAlloc: the limiter lives in the recycled
// context, so a policed user's first packet (which builds it) allocates
// nothing either. Each cycle attaches an AMBR-policed user from the warm
// free list, forwards its first downlink packet and detaches it.
func TestPolicedFirstPacketZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	pool := pkt.NewPool(2048, 128)
	batch := make([]*pkt.Buf, 1)
	cycle := func() {
		res, err := s.Control().Attach(AttachSpec{
			IMSI: 7, ENBAddr: pkt.IPv4Addr(192, 168, 0, 1), DownlinkTEID: 9,
			ECGI: 7, TAI: 3, AMBRDownlink: 8 * 10_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Data().SyncUpdates()
		batch[0] = buildDownlink(pool, res.UEAddr, 80)
		s.Data().ProcessDownlinkBatch(batch, sim.Now())
		if drainEgress(s) != 1 {
			t.Fatal("first packet not forwarded")
		}
		if err := s.Control().Detach(7); err != nil {
			t.Fatal(err)
		}
		s.Data().SyncUpdates()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if got := s.Control().Stats().Recycles; got == 0 {
		t.Fatal("free list inactive after warmup")
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("policed attach→first packet→detach allocates %.2f allocs/op, want 0", avg)
	}
}

// TestRepairDegradedZeroAlloc: the control thread's housekeeping round —
// a degraded-user repair pass while the PCRF is still dark, then the
// data-plane sync — is allocation-free, so running it on every slice
// each tick costs no garbage however long an outage lasts.
func TestRepairDegradedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	h := hss.New()
	h.ProvisionRange(1, 100, 10e6, 50e6)
	policy := pcrf.New()
	policy.SetDefaultRules(outageRules())
	p := NewProxy(h, policy)
	dark := outagePolicy
	dark.BreakerCooldown = time.Hour // the breaker stays open for the test
	p.SetPolicy(dark)
	inj := fault.New(1)
	inj.Arm(fault.DiameterDrop, fault.RateMax)
	p.SetGxFaults(inj)

	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	cp := s.Control()
	cp.SetProxy(p)
	for imsi := uint64(1); imsi <= 4; imsi++ {
		if _, err := cp.Attach(AttachSpec{IMSI: imsi}); err != nil {
			t.Fatal(err)
		}
	}
	if p.GxAvailable() || cp.DegradedBacklog() != 4 {
		t.Fatalf("setup: Gx available=%v, backlog=%d; want breaker open, 4 degraded",
			p.GxAvailable(), cp.DegradedBacklog())
	}
	round := func() {
		if cp.RepairDegraded(0) != 0 {
			t.Fatal("repaired a user while the PCRF is dark")
		}
		s.Data().SyncUpdates()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("repair round allocates %.1f allocs/op, want 0", avg)
	}
	if cp.DegradedBacklog() != 4 {
		t.Fatalf("backlog = %d after dark rounds, want 4", cp.DegradedBacklog())
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
