package core

import (
	"testing"

	"pepc/internal/gtp"
	"pepc/internal/pcef"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// buildUplink constructs a GTP-U encapsulated uplink packet from a UE
// toward the internet.
func buildUplink(pool *pkt.Pool, teid, ueAddr, enbAddr, coreAddr uint32, dstPort uint16) *pkt.Buf {
	b := pool.Get()
	inner := pkt.IPv4HeaderLen + pkt.UDPHeaderLen + 32
	data, _ := b.Append(inner)
	ip := pkt.IPv4{Length: uint16(inner), TTL: 64, Protocol: pkt.ProtoUDP,
		Src: ueAddr, Dst: pkt.IPv4Addr(8, 8, 8, 8)}
	ip.SerializeTo(data)
	u := pkt.UDP{SrcPort: 5555, DstPort: dstPort, Length: uint16(pkt.UDPHeaderLen + 32)}
	u.SerializeTo(data[pkt.IPv4HeaderLen:])
	if err := gtp.EncapGPDU(b, teid, enbAddr, coreAddr); err != nil {
		panic(err)
	}
	return b
}

// buildDownlink constructs a plain IP downlink packet toward a UE.
func buildDownlink(pool *pkt.Pool, ueAddr uint32, dstPort uint16) *pkt.Buf {
	b := pool.Get()
	inner := pkt.IPv4HeaderLen + pkt.UDPHeaderLen + 32
	data, _ := b.Append(inner)
	ip := pkt.IPv4{Length: uint16(inner), TTL: 64, Protocol: pkt.ProtoUDP,
		Src: pkt.IPv4Addr(8, 8, 8, 8), Dst: ueAddr}
	ip.SerializeTo(data)
	u := pkt.UDP{SrcPort: 53, DstPort: dstPort, Length: uint16(pkt.UDPHeaderLen + 32)}
	u.SerializeTo(data[pkt.IPv4HeaderLen:])
	return b
}

func attachOne(t *testing.T, s *Slice, imsi uint64) AttachResult {
	t.Helper()
	res, err := s.Control().Attach(AttachSpec{
		IMSI: imsi, ENBAddr: pkt.IPv4Addr(192, 168, 0, 1), DownlinkTEID: 0x100 + uint32(imsi),
		ECGI: 7, TAI: 3,
	})
	if err != nil {
		t.Fatalf("attach %d: %v", imsi, err)
	}
	s.Data().SyncUpdates()
	return res
}

func drainEgress(s *Slice) int {
	n := 0
	for {
		b, ok := s.Egress.Dequeue()
		if !ok {
			return n
		}
		b.Free()
		n++
	}
}

func TestSliceUplinkEndToEnd(t *testing.T) {
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
		// The forwarded packet is the decapsulated inner packet.
		out, ok := s.Egress.Dequeue()
		if !ok {
			t.Fatal("no egress packet")
		}
		var ip pkt.IPv4
		if err := ip.DecodeFromBytes(out.Bytes()); err != nil {
			t.Fatal(err)
		}
		if ip.Src != res.UEAddr || ip.Dst != pkt.IPv4Addr(8, 8, 8, 8) {
			t.Fatalf("inner packet: %s -> %s", pkt.FormatIPv4(ip.Src), pkt.FormatIPv4(ip.Dst))
		}
		out.Free()
		// Counters recorded.
		ue := s.Control().Lookup(1001)
		var up uint64
		ue.ReadCounters(func(c *state.CounterState) { up = c.UplinkPackets })
		if up != 1 {
			t.Fatalf("uplink packets counted = %d", up)
		}
	})
}

func TestSliceDownlinkEncapsulates(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 2, UserHint: 64})
	res := attachOne(t, s, 2002)
	pool := pkt.NewPool(2048, 128)
	b := buildDownlink(pool, res.UEAddr, 443)
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{b}, sim.Now())
	out, ok := s.Egress.Dequeue()
	if !ok {
		t.Fatalf("no egress (missed=%d dropped=%d)", s.Data().Missed.Load(), s.Data().Dropped.Load())
	}
	// Must be GTP-U encapsulated toward the eNodeB.
	teid, err := gtp.DecapGPDU(out)
	if err != nil {
		t.Fatalf("egress not GTP-U: %v", err)
	}
	if teid != 0x100+2002 {
		t.Fatalf("downlink teid = %#x", teid)
	}
	var ip pkt.IPv4
	if err := ip.DecodeFromBytes(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ip.Dst != res.UEAddr {
		t.Fatalf("inner dst = %s", pkt.FormatIPv4(ip.Dst))
	}
	out.Free()
}

func TestSliceUnknownUserDropped(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 3, UserHint: 64})
	pool := pkt.NewPool(2048, 128)
	b := buildUplink(pool, 0xdeadbeef, 1, 2, 3, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if s.Data().Missed.Load() != 1 || s.Data().Forwarded.Load() != 0 {
		t.Fatalf("missed=%d forwarded=%d", s.Data().Missed.Load(), s.Data().Forwarded.Load())
	}
}

func TestSliceBatchedUpdatesVisibleAfterSync(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 4, UserHint: 64, SyncEvery: 32})
	res, err := s.Control().Attach(AttachSpec{IMSI: 9, ENBAddr: 1, DownlinkTEID: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(2048, 128)
	// Batching delays visibility by up to SyncEvery packets (§7.2): the
	// first 32 packets all miss (the update sits in the queue), and the
	// sync after them makes packet 33 hit.
	batch := make([]*pkt.Buf, 32)
	for i := range batch {
		batch[i] = buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
	}
	s.Data().ProcessUplinkBatch(batch, sim.Now())
	if s.Data().Missed.Load() != 32 {
		t.Fatalf("pre-sync packets should miss, missed=%d", s.Data().Missed.Load())
	}
	b2 := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b2}, sim.Now())
	if s.Data().Forwarded.Load() != 1 {
		t.Fatal("post-sync packet should hit")
	}
	drainEgress(s)
}

func TestSlicePCEFDropRule(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 5, UserHint: 64})
	res := attachOne(t, s, 5005)
	// Block DNS.
	err := s.PCEF().Install(pcef.Rule{
		ID: 1, Precedence: 1, Action: pcef.ActionDrop,
		Filter: pcef.FilterSpec{Proto: pkt.ProtoUDP, DstPortLo: 53, DstPortHi: 53},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(2048, 128)
	blocked := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 53)
	allowed := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{blocked, allowed}, sim.Now())
	if s.Data().Forwarded.Load() != 1 || s.Data().Dropped.Load() != 1 {
		t.Fatalf("forwarded=%d dropped=%d", s.Data().Forwarded.Load(), s.Data().Dropped.Load())
	}
	ue := s.Control().Lookup(5005)
	var dropped uint64
	ue.ReadCounters(func(c *state.CounterState) { dropped = c.DroppedPackets })
	if dropped != 1 {
		t.Fatalf("per-user drop counter = %d", dropped)
	}
	drainEgress(s)
}

func TestSliceQoSPolicing(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 6, UserHint: 64})
	res, err := s.Control().Attach(AttachSpec{
		IMSI: 6006, ENBAddr: 1, DownlinkTEID: 2,
		AMBRUplink: 8 * 3000, // 3000 B/s => burst 3000 B minimum
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	now := sim.Now()
	// Each inner packet is 60 bytes; the burst allows ~50 packets.
	sent, forwarded0 := 0, s.Data().Forwarded.Load()
	for i := 0; i < 200; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
		s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, now)
		sent++
	}
	forwarded := s.Data().Forwarded.Load() - forwarded0
	if forwarded == 0 || forwarded >= uint64(sent) {
		t.Fatalf("policing ineffective: forwarded %d of %d", forwarded, sent)
	}
	drainEgress(s)
}

func TestSliceHandoverRedirectsDownlink(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 7, UserHint: 64})
	res := attachOne(t, s, 7007)
	if err := s.Control().S1Handover(7007, pkt.IPv4Addr(192, 168, 0, 99), 0x9999, 42); err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(2048, 128)
	b := buildDownlink(pool, res.UEAddr, 80)
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{b}, sim.Now())
	out, ok := s.Egress.Dequeue()
	if !ok {
		t.Fatal("no egress after handover")
	}
	var oip pkt.IPv4
	oip.DecodeFromBytes(out.Bytes())
	if oip.Dst != pkt.IPv4Addr(192, 168, 0, 99) {
		t.Fatalf("outer dst = %s, want new eNodeB", pkt.FormatIPv4(oip.Dst))
	}
	teid, err := gtp.DecapGPDU(out)
	if err != nil || teid != 0x9999 {
		t.Fatalf("teid after handover = %#x, %v", teid, err)
	}
	out.Free()
}

func TestSliceIoTFastPath(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 8, UserHint: 64, IoTTEIDBase: 0xE0000000, IoTTEIDCount: 100})
	teid, ok := s.Control().AllocateIoT()
	if !ok {
		t.Fatal("IoT allocation failed")
	}
	pool := pkt.NewPool(2048, 128)
	b := buildUplink(pool, teid, pkt.IPv4Addr(10, 99, 0, 1), 1, s.Config().CoreAddr, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if s.Data().IoTFast.Load() != 1 || s.Data().Forwarded.Load() != 1 {
		t.Fatalf("iot=%d forwarded=%d", s.Data().IoTFast.Load(), s.Data().Forwarded.Load())
	}
	// Pool exhaustion.
	s2 := NewSlice(SliceConfig{ID: 9, IoTTEIDBase: 10, IoTTEIDCount: 1})
	s2.Control().AllocateIoT()
	if _, ok := s2.Control().AllocateIoT(); ok {
		t.Fatal("IoT pool over-allocated")
	}
	drainEgress(s)
}

func TestSliceDetachRemovesDataPath(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 10, UserHint: 64})
	res := attachOne(t, s, 1010)
	if err := s.Control().Detach(1010); err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if s.Data().Missed.Load() != 1 {
		t.Fatal("detached user still reachable")
	}
	if err := s.Control().Detach(1010); err != ErrUserUnknown {
		t.Fatalf("double detach: %v", err)
	}
}

func TestSliceDuplicateAttachRejected(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 11, UserHint: 64})
	attachOne(t, s, 1)
	if _, err := s.Control().Attach(AttachSpec{IMSI: 1}); err != ErrUserExists {
		t.Fatalf("duplicate attach: %v", err)
	}
}

func TestSliceChargingCollection(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 13, UserHint: 64})
	res := attachOne(t, s, 13)
	pool := pkt.NewPool(2048, 128)
	for i := 0; i < 10; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
		s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	}
	cdr, err := s.Control().CollectUsage(13, sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	if cdr.Delta.UplinkPackets != 10 || cdr.Delta.UplinkBytes == 0 {
		t.Fatalf("CDR: %+v", cdr.Delta)
	}
	drainEgress(s)
}

func TestParseInnerExtractsFlow(t *testing.T) {
	pool := pkt.NewPool(2048, 128)
	b := buildDownlink(pool, pkt.IPv4Addr(10, 0, 0, 5), 8080)
	f, plen, ok := parseInner(b)
	if !ok || plen != b.Len() {
		t.Fatalf("parse: ok=%v plen=%d", ok, plen)
	}
	if f.Dst != pkt.IPv4Addr(10, 0, 0, 5) || f.DstPort != 8080 || f.Proto != pkt.ProtoUDP {
		t.Fatalf("flow: %+v", f)
	}
	b.Free()
	// Garbage does not parse.
	g := pool.Get()
	g.SetBytes([]byte{0xff, 0xff})
	if _, _, ok := parseInner(g); ok {
		t.Fatal("garbage parsed")
	}
}

// A non-IPv4 inner packet never reaches the PCEF: the parse stage drops
// it even though no rule is installed and the no-match verdict forwards.
func TestUplinkDropsNonIPv4Inner(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 15, UserHint: 64})
	res := attachOne(t, s, 15)
	pool := pkt.NewPool(2048, 128)
	enb := pkt.IPv4Addr(192, 168, 0, 1)

	b := pool.Get()
	data, _ := b.Append(40)
	data[0] = 0x65 // version 6, IHL 5: only the version check rejects it
	if err := gtp.EncapGPDU(b, res.UplinkTEID, enb, s.Config().CoreAddr); err != nil {
		t.Fatal(err)
	}
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if fwd, drop := s.Data().Forwarded.Load(), s.Data().Dropped.Load(); fwd != 0 || drop != 1 {
		t.Fatalf("v6 inner: forwarded=%d dropped=%d, want 0 and 1", fwd, drop)
	}

	// The same user's IPv4 traffic still forwards.
	s.Data().ProcessUplinkBatch([]*pkt.Buf{buildUplink(pool, res.UplinkTEID, res.UEAddr, enb, s.Config().CoreAddr, 80)}, sim.Now())
	if got := s.Data().Forwarded.Load(); got != 1 {
		t.Fatalf("v4 inner: forwarded=%d, want 1", got)
	}
	drainEgress(s)
}

// TestAllOnesUplinkTEIDForwards: an SMF may assign any nonzero F-TEID,
// the all-ones one included. The node accepts the attach and steers the
// user's G-PDUs, so the data-path index must hold that TEID like any
// other: the uplink is forwarded, not counted missed.
func TestAllOnesUplinkTEIDForwards(t *testing.T) {
	for _, teid := range []uint32{0x0A0B0C0D, ^uint32(0)} {
		node := NewNode(SliceConfig{ID: 16, UserHint: 64})
		res, err := node.AttachUser(0, AttachSpec{IMSI: 16, ENBAddr: 1, DownlinkTEID: 2, Preauthorized: true,
			AssignedUplinkTEID: teid, AssignedUEAddr: pkt.IPv4Addr(45, 0, 0, 16)})
		if err != nil || res.UplinkTEID != teid {
			t.Fatalf("attach with TEID %#x: got %#x, err %v", teid, res.UplinkTEID, err)
		}
		s := node.Slice(0)
		pool := pkt.NewPool(2048, 128)
		node.SteerUplink(buildUplink(pool, teid, res.UEAddr, 1, s.Config().CoreAddr, 80))
		s.RunPass(make([]*pkt.Buf, 8))
		if fwd, miss := s.Data().Forwarded.Load(), s.Data().Missed.Load(); fwd != 1 || miss != 0 {
			t.Fatalf("TEID %#x: forwarded=%d missed=%d, want 1 and 0", teid, fwd, miss)
		}
		if n := drainEgress(s); n != 1 {
			t.Fatalf("TEID %#x: egress %d packets, want 1", teid, n)
		}
	}
}

func TestDedicatedBearerTFTSelection(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 14, UserHint: 64})
	// Default bearer unpoliced; dedicated voice bearer with a tight MBR
	// and a TFT matching UDP :4000-4010.
	res, err := s.Control().Attach(AttachSpec{IMSI: 14, ENBAddr: 1, DownlinkTEID: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Control().AddDedicatedBearer(14, state.Bearer{
		EBI: 6, QCI: state.QCIConversationalVoice, ARP: 2,
		MBRUplink: 8 * 3000, // tiny: burst ~3000B then blocked
		TFT:       pcef.FilterSpec{Proto: pkt.ProtoUDP, DstPortLo: 4000, DstPortHi: 4010},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	now := sim.Now()

	// Voice-bearer traffic is policed by the dedicated bearer's MBR…
	voiceForwarded := 0
	for i := 0; i < 200; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 4005)
		before := s.Data().Forwarded.Load()
		s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, now)
		if s.Data().Forwarded.Load() > before {
			voiceForwarded++
		}
	}
	if voiceForwarded == 0 || voiceForwarded >= 200 {
		t.Fatalf("dedicated bearer policing: %d/200 forwarded", voiceForwarded)
	}
	// …while default-bearer traffic is unaffected.
	base := s.Data().Forwarded.Load()
	for i := 0; i < 50; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
		s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, now)
	}
	if got := s.Data().Forwarded.Load() - base; got != 50 {
		t.Fatalf("default bearer traffic policed: %d/50", got)
	}
	drainEgress(s)
}

func TestAddDedicatedBearerErrors(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 15, UserHint: 16})
	if err := s.Control().AddDedicatedBearer(404, state.Bearer{EBI: 6}); err != ErrUserUnknown {
		t.Fatalf("unknown user: %v", err)
	}
	s.Control().Attach(AttachSpec{IMSI: 15})
	for i := 0; i < state.MaxBearers-1; i++ {
		if err := s.Control().AddDedicatedBearer(15, state.Bearer{EBI: uint8(6 + i)}); err != nil {
			t.Fatalf("bearer %d: %v", i, err)
		}
	}
	if err := s.Control().AddDedicatedBearer(15, state.Bearer{EBI: 15}); err != ErrPoolExhausted {
		t.Fatalf("over-limit bearer: %v", err)
	}
}

// TestPagedPacketPolicedOnce: a downlink packet for a policed idle user
// is parked for paging without being policed, and policed exactly once
// when it is delivered after the service request — the user's AMBR
// bucket falls by the packet's length, not twice that.
func TestPagedPacketPolicedOnce(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 16, UserHint: 64})
	res, err := s.Control().Attach(AttachSpec{
		IMSI: 17, ENBAddr: pkt.IPv4Addr(192, 168, 0, 1), DownlinkTEID: 0x117,
		ECGI: 7, TAI: 3, AMBRDownlink: 8 * 1_000_000, // 1 MB/s → 20000 B burst
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	if err := s.Control().ReleaseAccess(17); err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(2048, 128)
	b := buildDownlink(pool, res.UEAddr, 80)
	plen := uint64(b.Len())
	const now = int64(1_000_000_000) // one clock for every step: no refill
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{b}, now)
	if got := s.Data().PagedPackets.Load(); got != 1 {
		t.Fatalf("paged = %d, want 1", got)
	}
	if err := s.Control().ResumeAccess(17, pkt.IPv4Addr(192, 168, 0, 77), 0x7700); err != nil {
		t.Fatal(err)
	}
	batch := make([]*pkt.Buf, 8)
	n := s.Downlink.DequeueBatch(batch)
	if n != 1 {
		t.Fatalf("requeued packets = %d, want 1", n)
	}
	s.Data().ProcessDownlinkBatch(batch[:n], now)
	if got := drainEgress(s); got != 1 {
		t.Fatalf("delivered %d packets after resume, want 1", got)
	}
	ue := s.Control().Lookup(17)
	if got, want := ue.Hot().Priv.Limiter.ExportLevels(now).AMBRDown, 20000-plen; got != want {
		t.Fatalf("AMBR down level %d after one %d-byte packet, want %d (policed %d times)",
			got, plen, want, (20000-got)/plen)
	}
}

func TestIdleModePagingCycle(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 16, UserHint: 64})
	res := attachOne(t, s, 16)
	pool := pkt.NewPool(2048, 128)

	// S1 release: the user goes idle.
	if err := s.Control().ReleaseAccess(16); err != nil {
		t.Fatal(err)
	}
	// Downlink for an idle user parks instead of dropping.
	b := buildDownlink(pool, res.UEAddr, 80)
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{b}, sim.Now())
	if s.Data().PagedPackets.Load() != 1 {
		t.Fatalf("paged = %d (dropped=%d)", s.Data().PagedPackets.Load(), s.Data().Dropped.Load())
	}
	if _, ok := s.Egress.Dequeue(); ok {
		t.Fatal("idle user's packet escaped to egress")
	}

	// Service request: the UE answers the page from a new eNodeB.
	if err := s.Control().ResumeAccess(16, pkt.IPv4Addr(192, 168, 0, 77), 0x7700); err != nil {
		t.Fatal(err)
	}
	// The parked packet was re-queued onto the downlink ring; process it.
	batch := make([]*pkt.Buf, 8)
	n := s.Downlink.DequeueBatch(batch)
	if n != 1 {
		t.Fatalf("requeued packets = %d", n)
	}
	s.Data().ProcessDownlinkBatch(batch[:n], sim.Now())
	out, ok := s.Egress.Dequeue()
	if !ok {
		t.Fatal("paged packet not delivered after resume")
	}
	teid, err := gtp.DecapGPDU(out)
	if err != nil || teid != 0x7700 {
		t.Fatalf("delivered to teid %#x, %v", teid, err)
	}
	out.Free()

	// Release again: a re-parked packet gets one more chance per resume
	// and is dropped on its second idle pass.
	s.Control().ReleaseAccess(16)
	b2 := buildDownlink(pool, res.UEAddr, 80)
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{b2}, sim.Now())
	if s.Data().PagedPackets.Load() != 2 {
		t.Fatalf("second park: paged=%d", s.Data().PagedPackets.Load())
	}
	// A packet that is still marked Paged (no intervening resume cleared
	// it) and meets an idle user again is dropped, not re-parked.
	b3 := buildDownlink(pool, res.UEAddr, 80)
	b3.Meta.Paged = true
	dropsBefore := s.Data().Dropped.Load()
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{b3}, sim.Now())
	if s.Data().Dropped.Load() != dropsBefore+1 {
		t.Fatal("twice-idle packet not dropped")
	}
	if s.Data().PagedPackets.Load() != 2 {
		t.Fatalf("paged counter moved on the drop path: %d", s.Data().PagedPackets.Load())
	}
	if err := s.Control().ReleaseAccess(404); err != ErrUserUnknown {
		t.Fatalf("release unknown: %v", err)
	}
	if err := s.Control().ResumeAccess(404, 1, 1); err != ErrUserUnknown {
		t.Fatalf("resume unknown: %v", err)
	}
}

func TestGTPUEchoAnswered(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 17, UserHint: 16})
	pool := pkt.NewPool(2048, 128)
	// Build an echo request as an eNodeB path probe.
	b := pool.Get()
	total := pkt.IPv4HeaderLen + pkt.UDPHeaderLen + gtp.HeaderLen
	data, _ := b.Append(total)
	enb, core := pkt.IPv4Addr(192, 168, 0, 1), s.Config().CoreAddr
	ip := pkt.IPv4{Length: uint16(total), TTL: 64, Protocol: pkt.ProtoUDP, Src: enb, Dst: core}
	ip.SerializeTo(data)
	u := pkt.UDP{SrcPort: gtp.PortGTPU, DstPort: gtp.PortGTPU, Length: uint16(pkt.UDPHeaderLen + gtp.HeaderLen)}
	u.SerializeTo(data[pkt.IPv4HeaderLen:])
	h := gtp.Header{Type: gtp.MsgEchoRequest}
	h.SerializeTo(data[pkt.IPv4HeaderLen+pkt.UDPHeaderLen:])

	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if s.Data().EchoReplies.Load() != 1 {
		t.Fatalf("echo replies = %d (dropped=%d)", s.Data().EchoReplies.Load(), s.Data().Dropped.Load())
	}
	out, ok := s.Egress.Dequeue()
	if !ok {
		t.Fatal("no echo response on egress")
	}
	var oip pkt.IPv4
	oip.DecodeFromBytes(out.Bytes())
	if oip.Dst != enb || oip.Src != core {
		t.Fatalf("echo response addressing: %s -> %s", pkt.FormatIPv4(oip.Src), pkt.FormatIPv4(oip.Dst))
	}
	if !pkt.VerifyChecksum(out.Bytes()[:pkt.IPv4HeaderLen]) {
		t.Fatal("echo response checksum invalid")
	}
	off := oip.HeaderLen() + pkt.UDPHeaderLen
	if out.Bytes()[off+1] != gtp.MsgEchoResponse {
		t.Fatalf("message type = %#x", out.Bytes()[off+1])
	}
	out.Free()

	// A non-echo, non-G-PDU GTP message still drops.
	b2 := pool.Get()
	data2, _ := b2.Append(total)
	copy(data2, data)
	// The echo turned our template into a response; flip addressing back
	// and set an unsupported type.
	ip.SerializeTo(data2)
	h2 := gtp.Header{Type: gtp.MsgErrorIndication}
	h2.SerializeTo(data2[pkt.IPv4HeaderLen+pkt.UDPHeaderLen:])
	dropsBefore := s.Data().Dropped.Load()
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b2}, sim.Now())
	if s.Data().Dropped.Load() != dropsBefore+1 {
		t.Fatal("unsupported GTP message not dropped")
	}
}

// An egress tail drop is a drop, not a forward: when the egress ring
// fills mid-batch, every packet offered ends up counted exactly once,
// either forwarded (and on the egress ring) or dropped.
func TestEgressTailDropCountedOnce(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 18, UserHint: 16, RingCapacity: 4})
	res := attachOne(t, s, 1801)
	pool := pkt.NewPool(2048, 128)
	const offered = 8
	batch := make([]*pkt.Buf, offered)
	for i := range batch {
		batch[i] = buildUplink(pool, res.UplinkTEID, res.UEAddr, pkt.IPv4Addr(192, 168, 0, 1), s.Config().CoreAddr, 80)
	}
	s.Data().ProcessUplinkBatch(batch, sim.Now())
	fwd, drop := s.Data().Forwarded.Load(), s.Data().Dropped.Load()
	if fwd != uint64(s.Egress.Len()) {
		t.Fatalf("forwarded = %d, but the egress ring holds %d", fwd, s.Egress.Len())
	}
	if fwd+drop != offered {
		t.Fatalf("forwarded %d + dropped %d = %d, want %d offered", fwd, drop, fwd+drop, offered)
	}
	if fwd != 4 {
		t.Fatalf("forwarded = %d, want the egress capacity 4", fwd)
	}
	drainEgress(s)
}
