package core

import (
	"testing"

	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// Checks of the per-user state (DESIGN.md §4.10): forwarding and exact
// counters, policing and the attach/detach
// lifecycle.

func TestTableModesUplinkEndToEnd(t *testing.T) {
	// The subtest is named for the single table, the only one.
	t.Run("single", func(t *testing.T) {
		s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
		res := attachOne(t, s, 1001)
		pool := pkt.NewPool(2048, 128)
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, pkt.IPv4Addr(192, 168, 0, 1), s.Config().CoreAddr, 80)
		s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
		if got := s.Data().Forwarded.Load(); got != 1 {
			t.Fatalf("forwarded = %d (missed=%d dropped=%d)", got,
				s.Data().Missed.Load(), s.Data().Dropped.Load())
		}
		down := buildDownlink(pool, res.UEAddr, 443)
		s.Data().ProcessDownlinkBatch([]*pkt.Buf{down}, sim.Now())
		if got := s.Data().Forwarded.Load(); got != 2 {
			t.Fatalf("downlink not forwarded (missed=%d)", s.Data().Missed.Load())
		}
		ue := s.Control().Lookup(1001)
		var up, dn uint64
		ue.ReadCounters(func(c *state.CounterState) { up, dn = c.UplinkPackets, c.DownlinkPackets })
		if up != 1 || dn != 1 {
			t.Fatalf("counters: up=%d down=%d", up, dn)
		}
		if ue.Hot().U != ue {
			t.Fatal("attached user's hot half is not bound to its context")
		}
		drainEgress(s)
	})
}

func TestUserStatePolicing(t *testing.T) {
	// Policed users exercise the cold-read rebuild path: FastCtrl carries
	// Policed=true and the limiter is configured from a full control
	// snapshot on the first epoch change.
	s := NewSlice(SliceConfig{ID: 2, UserHint: 64})
	res, err := s.Control().Attach(AttachSpec{
		IMSI: 6006, ENBAddr: 1, DownlinkTEID: 2,
		AMBRUplink: 8 * 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	now := sim.Now()
	sent := 0
	for i := 0; i < 200; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
		s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, now)
		sent++
	}
	forwarded := s.Data().Forwarded.Load()
	if forwarded == 0 || forwarded >= uint64(sent) {
		t.Fatalf("policing ineffective: forwarded %d of %d", forwarded, sent)
	}
	drainEgress(s)
}

func TestDetachMissesBothKeys(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 3, UserHint: 64})
	res := attachOne(t, s, 3003)
	if s.Control().Lookup(3003) == nil {
		t.Fatal("attached user not found")
	}
	if err := s.Control().Detach(3003); err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	if s.Control().Lookup(3003) != nil {
		t.Fatal("detached user still registered")
	}
	// Both data-path keys miss once the delete is synced.
	pool := pkt.NewPool(2048, 128)
	b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{buildDownlink(pool, res.UEAddr, 443)}, sim.Now())
	if m, f := s.Data().Missed.Load(), s.Data().Forwarded.Load(); m != 2 || f != 0 {
		t.Fatalf("detached user: missed=%d forwarded=%d, want 2 and 0", m, f)
	}
}

func TestChurnReattachRecycles(t *testing.T) {
	// Attach/detach churn drives context recycling through the sync
	// fence: from the second round on the packet is served by a recycled
	// context, which must forward correctly.
	s := NewSlice(SliceConfig{ID: 4, UserHint: 64, SyncEvery: 1})
	pool := pkt.NewPool(2048, 128)
	for round := 0; round < 50; round++ {
		imsi := uint64(100 + round)
		res, err := s.Control().Attach(AttachSpec{IMSI: imsi, ENBAddr: 1, DownlinkTEID: 2})
		if err != nil {
			t.Fatalf("round %d attach: %v", round, err)
		}
		s.Data().SyncUpdates()
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
		s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
		if err := s.Control().Detach(imsi); err != nil {
			t.Fatalf("round %d detach: %v", round, err)
		}
		s.Data().SyncUpdates()
		// Extra batches advance the sync fence so retirees recycle.
		s.Data().ProcessUplinkBatch(nil, sim.Now())
		s.Data().SyncUpdates()
	}
	if got := s.Data().Forwarded.Load(); got != 50 {
		t.Fatalf("forwarded %d of 50 across churn (missed=%d)", got, s.Data().Missed.Load())
	}
	if got := s.Control().Stats().Recycles; got != 49 {
		t.Fatalf("Recycles = %d across 50 rounds, want 49", got)
	}
	drainEgress(s)
}
