package core

import (
	"testing"

	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// The handle state layout (DESIGN.md §4.10) must be behaviorally
// identical to the pointer layout: same forwarding, counters, policing
// and lifecycle semantics, with the hot state living in arena slabs
// addressed by generation+slot handles instead of heap pointers.

func TestHandleLayoutUplinkEndToEnd(t *testing.T) {
	for _, mode := range []TableMode{TableSingle, TableTwoLevel} {
		name := "single"
		if mode == TableTwoLevel {
			name = "twolevel"
		}
		t.Run(name, func(t *testing.T) {
			s := NewSlice(SliceConfig{ID: 1, TableMode: mode, StateLayout: LayoutHandle, UserHint: 64})
			if s.arena == nil {
				t.Fatal("handle layout did not build an arena")
			}
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
			if ue.Handle() == 0 {
				t.Fatal("attached user has no arena binding")
			}
			drainEgress(s)
		})
	}
}

func TestHandleLayoutPolicing(t *testing.T) {
	// Policed users exercise the cold-read rebuild path: FastCtrl carries
	// Policed=true and the limiter is configured from a full control
	// snapshot on the first epoch change.
	s := NewSlice(SliceConfig{ID: 2, StateLayout: LayoutHandle, UserHint: 64})
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

func TestHandleLayoutDetachInvalidatesHandle(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 3, StateLayout: LayoutHandle, UserHint: 64})
	res := attachOne(t, s, 3003)
	h := s.Control().Lookup(3003).Handle()
	if s.arena.At(h) == nil {
		t.Fatal("live handle does not resolve")
	}
	if err := s.Control().Detach(3003); err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	// The generation bump makes the retired handle miss even though the
	// slot memory is still there for in-flight references.
	if s.arena.At(h) != nil {
		t.Fatal("retired handle still resolves")
	}
	pool := pkt.NewPool(2048, 128)
	b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if s.Data().Missed.Load() != 1 {
		t.Fatal("detached user still reachable")
	}
}

func TestHandleLayoutChurnReattach(t *testing.T) {
	// Attach/detach churn drives slot recycling through the sync fence:
	// recycled users must get fresh generations and forward correctly,
	// and the arena must not grow without bound.
	s := NewSlice(SliceConfig{ID: 4, StateLayout: LayoutHandle, UserHint: 64, SyncEvery: 1})
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
	if s.arena.Slots() > 2*slabSizeForTest {
		t.Fatalf("arena grew to %d slots under 1-live-user churn", s.arena.Slots())
	}
	drainEgress(s)
}

// slabSizeForTest mirrors state's slab size (1024) without exporting it.
const slabSizeForTest = 1024
