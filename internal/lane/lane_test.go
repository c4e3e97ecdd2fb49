package lane

import (
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"pepc/internal/core"
	"pepc/internal/pkt"
	"pepc/internal/sockio"
	"pepc/internal/workload"
)

// TestZeroAllocLane guards the lane's steady state like the other
// fast-path guards: receive, steer, the slice pass, transmit — and the
// park/unpark around them — allocate nothing per burst.
func TestZeroAllocLane(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0") // the SGi next-hop
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer pc.Close()
	sink, err := sockio.NewConn(pc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	group, err := sockio.ListenGroup("udp4", "127.0.0.1:0", 1)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer group.Close()
	node := core.NewNode(core.SliceConfig{ID: 1, UserHint: 64})
	users := make([]workload.User, 4)
	for i := range users {
		imsi := uint64(i + 1)
		res, err := node.AttachUser(0, core.AttachSpec{IMSI: imsi, ENBAddr: 0xC0A83201, DownlinkTEID: 0x0200_0000 | uint32(imsi)})
		if err != nil {
			t.Fatal(err)
		}
		users[i] = workload.User{IMSI: imsi, UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr}
	}
	const burst = 8
	var egressErrs, egressNoRoute atomic.Uint64
	l := New(node, group.Queue(0), []*core.Slice{node.Slice(0)}, pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom),
		sockio.NewPeerTable(), pc.LocalAddr().(*net.UDPAddr).AddrPort(), burst, burst, burst, nil, &egressErrs, &egressNoRoute)
	defer node.Slice(0).ReleaseData()

	sc, err := net.Dial("udp4", group.LocalAddrPort().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	src, err := sockio.NewConn(sc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	snd := sockio.NewSender(src, burst, time.Hour)
	defer snd.Close()
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 0xC0A83201}, users)
	tmpl := gen.UplinkFor(users[0])
	payload := append([]byte(nil), tmpl.Bytes()...)
	tmpl.Free()

	out := make([]sockio.Message, burst)
	for i := range out {
		out[i].Buf = make([]byte, 2048)
	}
	pc.SetReadDeadline(time.Now().Add(30 * time.Second))
	group.Queue(0).UDPConn().SetReadDeadline(time.Now().Add(30 * time.Second))
	round := func(get func() *pkt.Buf) {
		for i := 0; i < burst; i++ {
			b := get()
			b.SetBytes(payload)
			if err := snd.Queue(b, netip.AddrPort{}); err != nil { // a full batch flushes itself
				t.Fatal(err)
			}
		}
		for got := 0; got < burst; {
			n, err := l.recv()
			if err != nil {
				t.Fatal(err)
			}
			l.pass(n)
			got += n
		}
		for got := 0; got < burst; {
			n, err := sink.ReadBatch(out)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	round(pool.Get)             // binds the caches and grows the syscall scratch
	recycled := snd.Cache().Get // the sender's free cycle feeds the next burst
	// Warm until the lane's buffer cycle closes: its sender's free cache
	// has to fill and spill to the shared pool before its receiver's
	// refills stop minting new buffers.
	for i := 0; i < 4*pkt.DefaultCacheSize/burst; i++ {
		round(recycled)
	}
	if allocs := testing.AllocsPerRun(50, func() { round(recycled) }); allocs != 0 {
		t.Fatalf("lane steady state allocates %.1f allocs/burst, want 0", allocs)
	}
	if fwd := node.Slice(0).Data().Forwarded.Load(); fwd < 50*burst {
		t.Fatalf("forwarded %d packets; the guard did not exercise the data path", fwd)
	}
	if e, nr := egressErrs.Load(), egressNoRoute.Load(); e != 0 || nr != 0 {
		t.Fatalf("egress errs=%d noroute=%d; every packet should reach the sink", e, nr)
	}
}
