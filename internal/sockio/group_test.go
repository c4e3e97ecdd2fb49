package sockio

import (
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"pepc/internal/pkt"
)

// gtpPayload builds the minimal datagram shape the group's steering
// program classifies as a GTP-U envelope — PEPC's wire format of outer
// IPv4 (option-free) carrying UDP to port 2152 with the outer TEID at
// offset 32.
func gtpPayload(teid uint32, tail byte) []byte {
	p := make([]byte, pkt.IPv4HeaderLen+pkt.UDPHeaderLen+8+4)
	p[0] = 0x45
	binary.BigEndian.PutUint16(p[2:4], uint16(len(p)))
	p[9] = pkt.ProtoUDP
	binary.BigEndian.PutUint32(p[12:16], 0xC0A83201) // outer src (eNB)
	binary.BigEndian.PutUint32(p[16:20], 0x0A000001) // outer dst (core)
	binary.BigEndian.PutUint16(p[20:22], 2152)       // UDP src port
	binary.BigEndian.PutUint16(p[22:24], 2152)       // UDP dst port (GTP-U)
	binary.BigEndian.PutUint16(p[24:26], uint16(len(p)-pkt.IPv4HeaderLen))
	p[28] = 0x30 // GTP-U v1 flags
	p[29] = 0xff // G-PDU
	binary.BigEndian.PutUint16(p[30:32], 4)
	binary.BigEndian.PutUint32(p[32:36], teid)
	p[len(p)-1] = tail
	return p
}

// TestGroupSingleIsPlainConn covers graceful degradation: a group of one
// is a bare Conn — no reuseport, no steering — and carries a Sender →
// Receiver round trip byte-identically to the single-socket path.
func TestGroupSingleIsPlainConn(t *testing.T) {
	g, err := ListenGroup("udp4", "127.0.0.1:0", 1)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer g.Close()
	if g.Size() != 1 {
		t.Fatalf("Size = %d, want 1", g.Size())
	}
	if g.Steered() {
		t.Fatal("single-socket group claims a steering program")
	}

	suc, err := net.Dial("udp4", g.LocalAddrPort().String())
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewConn(suc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	pool := pkt.NewPool(512, 64)
	snd := NewSender(tx, 4, -1)
	want := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie")}
	for _, p := range want {
		b := pool.Get()
		b.SetBytes(p)
		if err := snd.Queue(b, netip.AddrPort{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReceiver(g.Queue(0), pool, 4)
	defer r.Close()
	g.Queue(0).UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	for got < len(want) {
		n, err := r.Recv()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if string(r.Buf(i).Bytes()) != string(want[got]) {
				t.Fatalf("datagram %d = %q, want %q", got, r.Buf(i).Bytes(), want[got])
			}
			if r.Buf(i).Headroom() != 64 {
				t.Fatalf("headroom = %d, want 64", r.Buf(i).Headroom())
			}
			got++
		}
	}
	if st := g.Stats(); st.RxPackets != uint64(len(want)) {
		t.Fatalf("group RxPackets = %d, want %d", st.RxPackets, len(want))
	}
}

// TestGroupDistribution asserts every queue of a steered group receives
// traffic under multi-source load, and that the steering is the
// documented flow affinity: TEID t lands on queue t mod n, regardless of
// which source socket sent it.
func TestGroupDistribution(t *testing.T) {
	const queues = 4
	g, err := ListenGroup("udp4", "127.0.0.1:0", queues)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer g.Close()
	if g.Size() != queues {
		t.Skipf("multi-queue group unavailable (size %d): portable fallback platform", g.Size())
	}
	if !g.Steered() {
		t.Skip("kernel refused SO_ATTACH_REUSEPORT_CBPF; steering untestable")
	}

	// Multi-source load: several sender sockets, each spraying TEIDs
	// across every residue class.
	const sources = 4
	const perSource = 32
	for s := 0; s < sources; s++ {
		sc, err := net.Dial("udp4", g.LocalAddrPort().String())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perSource; i++ {
			teid := uint32(s*perSource + i)
			if _, err := sc.Write(gtpPayload(teid, byte(s))); err != nil {
				t.Fatal(err)
			}
		}
		sc.Close()
	}

	total := 0
	for q := 0; q < queues; q++ {
		ms := make([]Message, 8)
		for i := range ms {
			ms[i].Buf = make([]byte, 256)
		}
		c := g.Queue(q)
		c.UDPConn().SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		seen := 0
		for {
			n, err := c.ReadBatch(ms)
			if err != nil {
				break // deadline: queue drained
			}
			for i := 0; i < n; i++ {
				teid := binary.BigEndian.Uint32(ms[i].Buf[32:36])
				if int(teid%queues) != q {
					t.Fatalf("queue %d received TEID %d (wants residue %d)", q, teid, teid%queues)
				}
				seen++
			}
		}
		if seen == 0 {
			t.Fatalf("queue %d received no traffic under multi-source load", q)
		}
		total += seen
	}
	// Loopback may drop under pressure but most of the modest load must
	// arrive, and it must spread: every queue already asserted nonzero.
	if total < sources*perSource/2 {
		t.Fatalf("only %d of %d datagrams arrived across the group", total, sources*perSource)
	}
}

// TestGroupFlowAffinityPlainIP covers the non-GTP branch of the steering
// program: plain IPv4 datagrams (downlink from the SGi) select their
// queue by destination address, so one UE's downlink stays on one queue.
func TestGroupFlowAffinityPlainIP(t *testing.T) {
	const queues = 2
	g, err := ListenGroup("udp4", "127.0.0.1:0", queues)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer g.Close()
	if g.Size() != queues || !g.Steered() {
		t.Skip("steered multi-queue group unavailable")
	}

	sc, err := net.Dial("udp4", g.LocalAddrPort().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	const per = 8
	mk := func(dst uint32) []byte {
		p := make([]byte, pkt.IPv4HeaderLen+8)
		p[0] = 0x45
		binary.BigEndian.PutUint16(p[2:4], uint16(len(p)))
		p[9] = pkt.ProtoUDP
		binary.BigEndian.PutUint32(p[16:20], dst)
		return p
	}
	for i := 0; i < per; i++ {
		if _, err := sc.Write(mk(0x0A000000)); err != nil { // dst ≡ 0 (mod 2)
			t.Fatal(err)
		}
		if _, err := sc.Write(mk(0x0A000001)); err != nil { // dst ≡ 1 (mod 2)
			t.Fatal(err)
		}
	}
	for q := 0; q < queues; q++ {
		ms := make([]Message, 4)
		for i := range ms {
			ms[i].Buf = make([]byte, 256)
		}
		c := g.Queue(q)
		c.UDPConn().SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		seen := 0
		for {
			n, err := c.ReadBatch(ms)
			if err != nil {
				break
			}
			for i := 0; i < n; i++ {
				dst := binary.BigEndian.Uint32(ms[i].Buf[16:20])
				if int(dst%queues) != q {
					t.Fatalf("queue %d received IPv4 dst %08x (wants residue %d)", q, dst, dst%queues)
				}
				seen++
			}
		}
		if seen == 0 {
			t.Fatalf("queue %d received no plain-IP traffic", q)
		}
	}
}

// TestGroupConcurrentSendersSharedPeerTable is the race-mode guard for
// the multi-queue egress model: one Sender per queue, all resolving
// destinations through a single copy-on-write PeerTable while rx-side
// learns churn it concurrently.
func TestGroupConcurrentSendersSharedPeerTable(t *testing.T) {
	g, err := ListenGroup("udp4", "127.0.0.1:0", 2)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer g.Close()

	sinkPC, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	sink := sinkPC.LocalAddr().(*net.UDPAddr).AddrPort()
	go func() { // drain so the senders never block on a full socket buffer
		buf := make([]byte, 2048)
		sinkPC.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, _, err := sinkPC.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	defer sinkPC.Close()

	pt := NewPeerTable()
	for ip := uint32(0); ip < 8; ip++ {
		pt.Learn(ip, sink)
	}

	const rounds = 400
	var wg sync.WaitGroup
	// Learner: churns mappings (including re-learns of existing keys,
	// the eNodeB-restart path) while the senders look up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			pt.Learn(uint32(i%64), sink)
			pt.Learn(uint32(1000+i), netip.AddrPortFrom(sink.Addr(), uint16(10000+i%100)))
		}
	}()
	for q := 0; q < g.Size(); q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			pool := pkt.NewPool(512, 64)
			snd := NewSender(g.Queue(q), 8, time.Hour)
			defer snd.Close()
			for i := 0; i < rounds; i++ {
				dst, ok := pt.Lookup(uint32(i % 8))
				if !ok {
					t.Errorf("queue %d: mapping %d vanished", q, i%8)
					return
				}
				b := pool.Get()
				b.SetBytes([]byte{byte(q), byte(i)})
				if err := snd.Queue(b, dst); err != nil {
					t.Errorf("queue %d: %v", q, err)
					return
				}
				if i%16 == 0 {
					if err := snd.Flush(); err != nil {
						t.Errorf("queue %d: flush: %v", q, err)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	if pt.Len() < 8 {
		t.Fatalf("PeerTable lost entries: Len = %d", pt.Len())
	}
	if got, ok := pt.Lookup(3); !ok || got != sink {
		t.Fatalf("Lookup(3) = %v, %v after churn", got, ok)
	}
}

// TestGroupSegmentedRunGRO pins what one segmented run does to a steered
// group whose queues receive with UDP_GRO: 32 equal GTP-U datagrams,
// TEIDs 0–31, sent as one UDP_SEGMENT message. Every datagram must
// arrive exactly once and byte-exact on some queue. Which queue is not
// asserted: the kernel steers a run as one packet, by its first
// datagram's TEID, so most land on a queue other than TEID mod 4 — the
// count is logged.
func TestGroupSegmentedRunGRO(t *testing.T) {
	const queues, n = 4, 32
	g, err := ListenGroup("udp4", "127.0.0.1:0", queues)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer g.Close()
	if g.Size() != queues || !g.Steered() {
		t.Skipf("no steered %d-queue group here (size %d, steered %v)", queues, g.Size(), g.Steered())
	}
	tx := backend{}.bound(t)
	if !tx.gsoOn() {
		t.Skip("the kernel does not offer UDP_SEGMENT")
	}
	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	rcvs := make([]*Receiver, queues)
	for i := range rcvs {
		rcvs[i] = NewReceiver(g.Queue(i), pool, 8)
		defer rcvs[i].Close()
		if !g.Queue(i).groOn() {
			t.Logf("queue %d: the kernel refused UDP_GRO", i)
		}
	}
	ms := make([]Message, n)
	for i := range ms {
		p := gtpPayload(uint32(i), byte(i))
		ms[i] = Message{Buf: p, N: len(p), Addr: g.LocalAddrPort()}
	}
	if sent, err := tx.WriteBatch(ms); err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v", sent, err)
	}
	queueOf := make(map[uint32]int)
	deadline := time.Now().Add(5 * time.Second)
	for len(queueOf) < n && time.Now().Before(deadline) {
		for q, r := range rcvs {
			k, err := r.Poll()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				b := r.Buf(i).Bytes()
				teid := binary.BigEndian.Uint32(b[32:36])
				if teid >= n || string(b) != string(gtpPayload(teid, byte(teid))) {
					t.Fatalf("queue %d: datagram %.8x… matches none sent", q, b)
				}
				if prev, dup := queueOf[teid]; dup {
					t.Fatalf("TEID %d arrived twice (queues %d and %d)", teid, prev, q)
				}
				queueOf[teid] = q
			}
		}
		time.Sleep(time.Millisecond)
	}
	if len(queueOf) != n {
		t.Fatalf("%d of %d datagrams arrived", len(queueOf), n)
	}
	foreign := 0
	for teid, q := range queueOf {
		if q != int(teid%queues) {
			foreign++
		}
	}
	t.Logf("%d of %d datagrams landed on a queue other than TEID mod %d", foreign, n, queues)
}
