package core

import (
	"testing"

	"pepc/internal/pkt"
)

func TestWireSteerMixedBurst(t *testing.T) {
	n := newTestNode(t, 2)
	res0, err := n.AttachUser(0, AttachSpec{IMSI: 100, ENBAddr: 1, DownlinkTEID: 11})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := n.AttachUser(1, AttachSpec{IMSI: 200, ENBAddr: 1, DownlinkTEID: 22})
	if err != nil {
		t.Fatal(err)
	}
	n.Slice(0).Data().SyncUpdates()
	n.Slice(1).Data().SyncUpdates()

	pool := pkt.NewPool(2048, 128)
	ws := n.NewWireSteer(8, nil)

	// A wire burst interleaving: uplink for slice 0 (x2), downlink for
	// slice 1, uplink for slice 0 again, garbage, downlink for an unknown
	// UE. Runs of equal (slice, direction) enqueue with one ring op.
	garbage := pool.Get()
	garbage.SetBytes([]byte{0xde, 0xad})
	burst := []*pkt.Buf{
		buildUplink(pool, res0.UplinkTEID, res0.UEAddr, 1, n.Slice(0).Config().CoreAddr, 80),
		buildUplink(pool, res0.UplinkTEID, res0.UEAddr, 1, n.Slice(0).Config().CoreAddr, 81),
		buildDownlink(pool, res1.UEAddr, 80),
		buildUplink(pool, res0.UplinkTEID, res0.UEAddr, 1, n.Slice(0).Config().CoreAddr, 82),
		garbage,
		buildDownlink(pool, pkt.IPv4Addr(1, 2, 3, 4), 80),
	}
	ws.Steer(burst)

	if got := n.Slice(0).Uplink.Len(); got != 3 {
		t.Fatalf("slice 0 uplink ring has %d packets, want 3", got)
	}
	if got := n.Slice(1).Downlink.Len(); got != 1 {
		t.Fatalf("slice 1 downlink ring has %d packets, want 1", got)
	}
	if got := n.Demux().Steered.Load(); got != 4 {
		t.Fatalf("Steered = %d, want 4", got)
	}
	if got := n.Demux().Unknown.Load(); got != 2 {
		t.Fatalf("Unknown = %d, want 2 (garbage + unknown UE)", got)
	}

	// The batch path must leave the same metadata the per-packet steer
	// records, so the slice's decap/parse stages reuse the wire parse.
	batch := make([]*pkt.Buf, 4)
	got := n.Slice(0).Uplink.DequeueBatch(batch)
	for i := 0; i < got; i++ {
		b := batch[i]
		if !b.Meta.OuterParsed || b.Meta.TEID != res0.UplinkTEID || b.Meta.OuterLen == 0 {
			t.Fatalf("uplink packet %d metadata not recorded: %+v", i, b.Meta)
		}
		b.Free()
	}
	dbatch := make([]*pkt.Buf, 1)
	n.Slice(1).Downlink.DequeueBatch(dbatch)
	if !dbatch[0].Meta.FlowParsed || dbatch[0].Meta.Flow.Dst != res1.UEAddr {
		t.Fatalf("downlink metadata not recorded: %+v", dbatch[0].Meta)
	}
	dbatch[0].Free()
}

func TestWireSteerDropsIntoCache(t *testing.T) {
	n := newTestNode(t, 1)
	pool := pkt.NewPool(2048, 128)
	cache := pool.NewCache(16)
	ws := n.NewWireSteer(4, cache)

	b := pool.Get()
	b.SetBytes([]byte{1, 2, 3})
	ws.Steer([]*pkt.Buf{b})

	if n.Demux().Unknown.Load() != 1 {
		t.Fatalf("Unknown = %d, want 1", n.Demux().Unknown.Load())
	}
	// The drop went into the wire loop's cache, not the shared pool.
	if got := cache.Get(); got != b {
		t.Fatal("dropped buffer did not land in the steerer's cache")
	}
	b.Free()
}

// markMigrating puts an uplink TEID mid-migration away from slice src by
// hand, as MigrateUser's first step does, so packets hit the buffering
// window deterministically. The returned end routes the TEID to slice
// dst, as the migration's end does, and hands back the packets buffered
// meanwhile.
func markMigrating(d *Demux, teid uint32, src int) (end func(dst int) []*pkt.Buf) {
	k := keyOf(teid, true)
	d.mu.Lock()
	d.put(k, int32(src), &migBuffer{})
	d.mu.Unlock()
	return func(dst int) []*pkt.Buf {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.put(k, int32(dst), nil).buf.pkts
	}
}

func TestWireSteerMigratingFallsBackToBuffering(t *testing.T) {
	n := newTestNode(t, 2)
	res, err := n.AttachUser(0, AttachSpec{IMSI: 100, ENBAddr: 1, DownlinkTEID: 11})
	if err != nil {
		t.Fatal(err)
	}
	n.Slice(0).Data().SyncUpdates()

	d := n.Demux()
	end := markMigrating(d, res.UplinkTEID, 0)

	pool := pkt.NewPool(2048, 128)
	ws := n.NewWireSteer(4, nil)
	ws.Steer([]*pkt.Buf{
		buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, n.Slice(0).Config().CoreAddr, 80),
		buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, n.Slice(0).Config().CoreAddr, 81),
	})

	if got := d.Buffered.Load(); got != 2 {
		t.Fatalf("Buffered = %d, want 2", got)
	}
	if got := n.Slice(0).Uplink.Len(); got != 0 {
		t.Fatalf("uplink ring has %d packets during migration, want 0", got)
	}
	for _, b := range end(0) {
		b.Free()
	}
}

func TestWireSteerRingFullTailDrop(t *testing.T) {
	n := newTestNode(t, 1)
	res, err := n.AttachUser(0, AttachSpec{IMSI: 100, ENBAddr: 1, DownlinkTEID: 11})
	if err != nil {
		t.Fatal(err)
	}
	n.Slice(0).Data().SyncUpdates()

	pool := pkt.NewPool(2048, 128)
	s := n.Slice(0)
	// Fill the uplink ring to the brim.
	filled := 0
	for {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
		if !s.Uplink.Enqueue(b) {
			b.Free()
			break
		}
		filled++
	}

	ws := n.NewWireSteer(4, nil)
	before := n.Demux().Steered.Load()
	ws.Steer([]*pkt.Buf{
		buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80),
		buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 81),
	})
	if got := n.Demux().Steered.Load(); got != before {
		t.Fatalf("Steered advanced by %d on a full ring, want 0", got-before)
	}
	if got := s.Uplink.Len(); got != filled {
		t.Fatalf("ring length %d after tail drop, want %d", got, filled)
	}
	// Drain so buffers return to the pool.
	batch := make([]*pkt.Buf, 64)
	for {
		k := s.Uplink.DequeueBatch(batch)
		if k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			batch[i].Free()
		}
	}
}

// TestSteerZeroAlloc guards the per-packet demux: SteerUplink and
// SteerDownlink allocate nothing, with the exception table empty (the
// home prefix alone decides) and with entries in it (a user migrated off
// its home, looked up beside one still on it).
func TestSteerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	n := newTestNode(t, 2)
	pool := pkt.NewPool(2048, 128)
	one := make([]*pkt.Buf, 1)
	steer := func(res AttachResult, slice int) float64 {
		s := n.Slice(slice)
		up := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
		down := buildDownlink(pool, res.UEAddr, 80)
		round := func() {
			n.SteerUplink(up)
			n.SteerDownlink(down)
			if s.Uplink.DequeueBatch(one) != 1 {
				t.Fatalf("uplink not steered to slice %d", slice)
			}
			up = one[0]
			if s.Downlink.DequeueBatch(one) != 1 {
				t.Fatalf("downlink not steered to slice %d", slice)
			}
			down = one[0]
		}
		round()
		return testing.AllocsPerRun(200, round)
	}
	var res [2]AttachResult
	for i := range res {
		var err error
		if res[i], err = n.AttachUser(0, AttachSpec{IMSI: uint64(i + 1), ENBAddr: 1, DownlinkTEID: 11}); err != nil {
			t.Fatal(err)
		}
	}
	if n.Demux().excN.Load() != 0 {
		t.Fatal("home attaches created exceptions")
	}
	if a := steer(res[0], 0); a != 0 {
		t.Fatalf("steering by home prefix allocates %.1f/round", a)
	}
	if err := n.Scheduler().MigrateUser(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if n.Demux().excN.Load() != 2 {
		t.Fatalf("%d exceptions after a migration off home, want 2", n.Demux().excN.Load())
	}
	if a := steer(res[1], 1); a != 0 {
		t.Fatalf("steering by exception allocates %.1f/round", a)
	}
	if a := steer(res[0], 0); a != 0 {
		t.Fatalf("steering by home past a non-empty exception table allocates %.1f/round", a)
	}
}

// TestWireSteerZeroAlloc guards the rx fast path: steering a warm burst
// performs no allocations.
func TestWireSteerZeroAlloc(t *testing.T) {
	n := newTestNode(t, 1)
	res, err := n.AttachUser(0, AttachSpec{IMSI: 100, ENBAddr: 1, DownlinkTEID: 11})
	if err != nil {
		t.Fatal(err)
	}
	n.Slice(0).Data().SyncUpdates()

	pool := pkt.NewPool(2048, 128)
	const batch = 8
	ws := n.NewWireSteer(batch, nil)
	s := n.Slice(0)

	bufs := make([]*pkt.Buf, batch)
	for i := range bufs {
		bufs[i] = buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
	}
	scratch := make([]*pkt.Buf, batch)

	round := func() {
		ws.Steer(bufs)
		got := 0
		for got < batch {
			k := s.Uplink.DequeueBatch(scratch[got:])
			got += k
		}
		copy(bufs, scratch[:batch])
	}
	round() // warm scratch
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("WireSteer steady state allocates %.1f allocs/burst, want 0", allocs)
	}
}
