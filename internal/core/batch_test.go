package core

import (
	"bytes"
	"sync"
	"testing"

	"pepc/internal/gtp"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
	"pepc/internal/workload"
)

// TestBatchEquivalentToPacketAtATime feeds the same bursty, QoS-policed
// packet sequence through one slice as whole batches and through another
// one packet at a time, in each direction. Flow-run coalescing must be an
// optimization, not a semantic change: forwarded/dropped/paged totals,
// the per-user counters and the egress bytes in order (the downlink GTP-U
// envelope included) must match exactly, including the partial-run
// fallback where the aggregate token-bucket check fails mid-burst and,
// for an idle user, the paging path.
func TestBatchEquivalentToPacketAtATime(t *testing.T) {
	for _, tc := range []struct {
		name         string
		uplink, idle bool
	}{
		{"uplink", true, false},
		{"downlink", false, false},
		{"downlink-idle", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 8-packet bursts per "user instant", 128 packets total: well
			// past the policing burst so runs start failing the aggregate
			// check.
			const runLen, total = 8, 128
			pool := pkt.NewPool(4096, 128)
			now := sim.Now()
			feed := func(single bool) (*Slice, [][]byte) {
				s := NewSlice(SliceConfig{ID: 21, UserHint: 64})
				res, err := s.Control().Attach(AttachSpec{
					IMSI: 21, ENBAddr: 1, DownlinkTEID: 2,
					// Tiny: the burst admits ~50 packets, then partial runs.
					AMBRUplink: 8 * 3000, AMBRDownlink: 8 * 3000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if tc.idle {
					if err := s.Control().ReleaseAccess(21); err != nil {
						t.Fatal(err)
					}
				}
				s.Data().SyncUpdates()
				process := s.Data().ProcessDownlinkBatch
				if tc.uplink {
					process = s.Data().ProcessUplinkBatch
				}
				var egress [][]byte
				batch := make([]*pkt.Buf, runLen)
				for i := 0; i < total; i += runLen {
					for k := range batch {
						if tc.uplink {
							batch[k] = buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
						} else {
							batch[k] = buildDownlink(pool, res.UEAddr, 80)
						}
					}
					if single {
						for _, b := range batch {
							process([]*pkt.Buf{b}, now)
						}
					} else {
						process(batch, now)
					}
					for {
						b, ok := s.Egress.Dequeue()
						if !ok {
							break
						}
						egress = append(egress, append([]byte(nil), b.Bytes()...))
						b.Free()
					}
				}
				return s, egress
			}
			sBatch, eBatch := feed(false)
			sSingle, eSingle := feed(true)
			dBatch, dSingle := sBatch.Data(), sSingle.Data()

			if f1, f2 := dBatch.Forwarded.Load(), dSingle.Forwarded.Load(); f1 != f2 {
				t.Fatalf("forwarded: batch=%d single=%d", f1, f2)
			}
			if d1, d2 := dBatch.Dropped.Load(), dSingle.Dropped.Load(); d1 != d2 {
				t.Fatalf("dropped: batch=%d single=%d", d1, d2)
			}
			if p1, p2 := dBatch.PagedPackets.Load(), dSingle.PagedPackets.Load(); p1 != p2 {
				t.Fatalf("paged: batch=%d single=%d", p1, p2)
			}
			var c1, c2 state.CounterState
			sBatch.Control().Lookup(21).ReadCounters(func(c *state.CounterState) { c1 = *c })
			sSingle.Control().Lookup(21).ReadCounters(func(c *state.CounterState) { c2 = *c })
			if c1 != c2 {
				t.Fatalf("counters diverge:\nbatch:  %+v\nsingle: %+v", c1, c2)
			}
			if len(eBatch) != len(eSingle) {
				t.Fatalf("egress packets: batch=%d single=%d", len(eBatch), len(eSingle))
			}
			for i := range eBatch {
				if !bytes.Equal(eBatch[i], eSingle[i]) {
					t.Fatalf("egress packet %d differs:\nbatch:  %x\nsingle: %x", i, eBatch[i], eSingle[i])
				}
			}

			switch {
			case tc.idle:
				if p := dBatch.PagedPackets.Load(); p != total {
					t.Fatalf("paged %d of %d packets for an idle user", p, total)
				}
			case c1.DroppedPackets == 0 || c1.UplinkPackets+c1.DownlinkPackets == 0:
				t.Fatalf("test exercised no policing boundary: %+v", c1)
			case !tc.uplink && len(eBatch[0]) <= pkt.IPv4HeaderLen+pkt.UDPHeaderLen+32:
				t.Fatalf("downlink egress not encapsulated: %d bytes", len(eBatch[0]))
			}
		})
	}
}

// TestEchoInBatchMix verifies the parse stage's fast paths inside a mixed
// batch: an echo request and a garbage packet between data packets must
// not disturb the surrounding runs.
func TestEchoInBatchMix(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 22, UserHint: 64})
	res := attachOne(t, s, 22)
	pool := pkt.NewPool(2048, 128)

	echo := pool.Get()
	totalLen := pkt.IPv4HeaderLen + pkt.UDPHeaderLen + gtp.HeaderLen
	data, _ := echo.Append(totalLen)
	ip := pkt.IPv4{Length: uint16(totalLen), TTL: 64, Protocol: pkt.ProtoUDP,
		Src: pkt.IPv4Addr(192, 168, 0, 1), Dst: s.Config().CoreAddr}
	ip.SerializeTo(data)
	u := pkt.UDP{SrcPort: gtp.PortGTPU, DstPort: gtp.PortGTPU, Length: uint16(pkt.UDPHeaderLen + gtp.HeaderLen)}
	u.SerializeTo(data[pkt.IPv4HeaderLen:])
	h := gtp.Header{Type: gtp.MsgEchoRequest}
	h.SerializeTo(data[pkt.IPv4HeaderLen+pkt.UDPHeaderLen:])

	garbage := pool.Get()
	garbage.SetBytes([]byte{0xde, 0xad})

	batch := []*pkt.Buf{
		buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80),
		echo,
		buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80),
		garbage,
		buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80),
	}
	s.Data().ProcessUplinkBatch(batch, sim.Now())
	if s.Data().EchoReplies.Load() != 1 {
		t.Fatalf("echo replies = %d", s.Data().EchoReplies.Load())
	}
	// 3 data packets + 1 echo response forwarded, 1 garbage dropped.
	if f := s.Data().Forwarded.Load(); f != 4 {
		t.Fatalf("forwarded = %d (dropped=%d)", f, s.Data().Dropped.Load())
	}
	if d := s.Data().Dropped.Load(); d != 1 {
		t.Fatalf("dropped = %d", d)
	}
	var up uint64
	s.Control().Lookup(22).ReadCounters(func(c *state.CounterState) { up = c.UplinkPackets })
	if up != 3 {
		t.Fatalf("uplink packets counted = %d", up)
	}
	drainEgress(s)
}

// TestBatchKnobsIndependent checks that SliceConfig.SyncEvery
// (update-sync granularity) is independent of the processed batch: it
// defaults on its own, and a sync interval smaller than a batch still
// applies updates mid-batch.
func TestBatchKnobsIndependent(t *testing.T) {
	if def := (SliceConfig{}).withDefaults(); def.SyncEvery != state.DefaultSyncEvery {
		t.Fatalf("default SyncEvery = %d", def.SyncEvery)
	}

	// SyncEvery=4 with an 8-packet batch: the attach update queued before
	// processing must become visible at the first 4-packet boundary, so
	// packets 1-4 miss and packets 5-8 hit — inside one batch call.
	s := NewSlice(SliceConfig{ID: 23, UserHint: 64, SyncEvery: 4})
	res, err := s.Control().Attach(AttachSpec{IMSI: 23, ENBAddr: 1, DownlinkTEID: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(2048, 128)
	batch := make([]*pkt.Buf, 8)
	for i := range batch {
		batch[i] = buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
	}
	s.Data().ProcessUplinkBatch(batch, sim.Now())
	if m := s.Data().Missed.Load(); m != 4 {
		t.Fatalf("missed = %d, want 4 (sync at the SyncEvery boundary)", m)
	}
	if f := s.Data().Forwarded.Load(); f != 4 {
		t.Fatalf("forwarded = %d, want 4", f)
	}
	drainEgress(s)
}

// newSteadySlice builds a warmed slice with a policed population and a
// bursty generator for the allocation guards.
func newSteadySlice(t testing.TB) (*Slice, *workload.TrafficGen) {
	t.Helper()
	s := NewSlice(SliceConfig{ID: 24, UserHint: 1 << 10})
	users := make([]workload.User, 256)
	for i := range users {
		res, err := s.Control().Attach(AttachSpec{
			IMSI: uint64(i + 1), ENBAddr: 1, DownlinkTEID: uint32(i + 1),
			AMBRUplink: 100e6, AMBRDownlink: 100e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		users[i] = workload.User{IMSI: uint64(i + 1), UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr}
	}
	s.Data().SyncUpdates()
	gen := workload.NewTrafficGen(workload.TrafficConfig{CoreAddr: s.Config().CoreAddr, Burst: 8}, users)
	return s, gen
}

// TestUplinkSteadyStateZeroAlloc enforces DESIGN.md's "allocation-free at
// steady state" claim on the staged uplink fast path.
func TestUplinkSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	s, gen := newSteadySlice(t)
	batch := make([]*pkt.Buf, 32)
	run := func() {
		for i := range batch {
			batch[i] = gen.NextUplink()
		}
		s.Data().ProcessUplinkBatch(batch, sim.Now())
		drainEgress(s)
	}
	for i := 0; i < 64; i++ { // warm pools, scratch, limiter rebuilds
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("uplink fast path allocates %.2f allocs/op at steady state", avg)
	}
}

// TestDownlinkSteadyStateZeroAlloc is the downlink direction's guard.
func TestDownlinkSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	s, gen := newSteadySlice(t)
	batch := make([]*pkt.Buf, 32)
	run := func() {
		for i := range batch {
			batch[i] = gen.NextDownlink()
		}
		s.Data().ProcessDownlinkBatch(batch, sim.Now())
		drainEgress(s)
	}
	for i := 0; i < 64; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("downlink fast path allocates %.2f allocs/op at steady state", avg)
	}
}

// TestSteerMigrationCompletesInWindow pins the steer double-check race
// window: the lock-free lookup sees the user migrating, the migration
// completes before the demux lock is taken, and the packet must then be
// steered to the NEW owner by a fresh lookup instead of being buffered
// against a dead migration entry.
func TestSteerMigrationCompletesInWindow(t *testing.T) {
	node := NewNode(SliceConfig{ID: 1, UserHint: 64}, SliceConfig{ID: 2, UserHint: 64})
	res, err := node.AttachUser(0, AttachSpec{IMSI: 42, ENBAddr: 1, DownlinkTEID: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := node.Demux()
	// Put the user mid-migration, as MigrateUser's step 1 does, and
	// complete the "migration" inside the window: remap to slice 1 and
	// clear the migration entry between steer's lookup and its lock.
	end := markMigrating(d, res.UplinkTEID, 0)
	fired := false
	d.steerTestHook = func() {
		fired = true
		if n := len(end(1)); n != 0 {
			t.Errorf("%d packets buffered before the window", n)
		}
	}
	pool := pkt.NewPool(2048, 128)
	b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, node.Slice(1).Config().CoreAddr, 80)
	node.SteerUplink(b)
	d.steerTestHook = nil
	if !fired {
		t.Fatal("window hook never ran — steer did not see the migration entry")
	}
	if got := d.Buffered.Load(); got != 0 {
		t.Fatalf("packet buffered against completed migration (buffered=%d)", got)
	}
	if got := d.Unknown.Load(); got != 0 {
		t.Fatalf("packet dropped as unknown (unknown=%d)", got)
	}
	out := make([]*pkt.Buf, 4)
	if n := node.Slice(1).Uplink.DequeueBatch(out); n != 1 {
		t.Fatalf("new owner received %d packets, want 1", n)
	}
	out[0].Free()
	if n := node.Slice(0).Uplink.DequeueBatch(out); n != 0 {
		t.Fatalf("old owner received %d packets", n)
	}
}

// TestSteerDuringConcurrentMigration hammers steer against real
// back-and-forth migrations so the race detector can check the
// double-check path, and verifies no packet is lost: every steered
// packet is accounted for on a ring, in a migration buffer drain, or in
// the unknown counter.
func TestSteerDuringConcurrentMigration(t *testing.T) {
	node := NewNode(SliceConfig{ID: 1, UserHint: 64, RingCapacity: 1 << 14},
		SliceConfig{ID: 2, UserHint: 64, RingCapacity: 1 << 14})
	res, err := node.AttachUser(0, AttachSpec{IMSI: 77, ENBAddr: 1, DownlinkTEID: 2})
	if err != nil {
		t.Fatal(err)
	}
	const total = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src, dst := 0, 1
		for i := 0; i < 40; i++ {
			if err := node.Scheduler().MigrateUser(77, src, dst); err != nil {
				t.Errorf("migration %d: %v", i, err)
				return
			}
			src, dst = dst, src
		}
	}()
	pool := pkt.NewPool(1<<15, 128)
	for i := 0; i < total; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, node.Slice(0).Config().CoreAddr, 80)
		node.SteerUplink(b)
	}
	wg.Wait()
	d := node.Demux()
	out := make([]*pkt.Buf, 256)
	ringed := 0
	for _, s := range []*Slice{node.Slice(0), node.Slice(1)} {
		for {
			n := s.Uplink.DequeueBatch(out)
			if n == 0 {
				break
			}
			for _, b := range out[:n] {
				b.Free()
			}
			ringed += n
		}
	}
	if got := uint64(ringed) + d.Unknown.Load(); got != total {
		t.Fatalf("packets accounted = %d (ringed=%d unknown=%d), want %d",
			got, ringed, d.Unknown.Load(), total)
	}
}
