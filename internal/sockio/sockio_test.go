package sockio

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"pepc/internal/pkt"
)

// pairConns returns a bound receiver conn and a connected sender conn on
// loopback UDP, skipping when the environment forbids sockets.
func pairConns(t *testing.T) (rx, tx *Conn) {
	t.Helper()
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	ruc := pc.(*net.UDPConn)
	suc, err := net.Dial("udp4", ruc.LocalAddr().String())
	if err != nil {
		ruc.Close()
		t.Skipf("loopback UDP dial: %v", err)
	}
	rx, err = NewConn(ruc)
	if err != nil {
		t.Fatal(err)
	}
	tx, err = NewConn(suc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close(); tx.Close() })
	return rx, tx
}

// readAll reads from rx until want datagrams arrived or the deadline
// passes, appending payload copies to got.
func readAll(t *testing.T, rx *Conn, batch, want int) [][]byte {
	t.Helper()
	ms := make([]Message, batch)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048)
	}
	var got [][]byte
	rx.UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < want {
		n, err := rx.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d/%d: %v", len(got), want, err)
		}
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), ms[i].Buf[:ms[i].N]...))
		}
	}
	return got
}

func TestBatchRoundTrip(t *testing.T) {
	rx, tx := pairConns(t)
	const n = 17
	ms := make([]Message, n)
	for i := range ms {
		p := []byte(fmt.Sprintf("datagram-%02d", i))
		ms[i].Buf = p
		ms[i].N = len(p)
		// connected socket: zero Addr
	}
	sent, err := tx.WriteBatch(ms)
	if err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
	}
	got := readAll(t, rx, 8, n)
	for i, p := range got {
		want := fmt.Sprintf("datagram-%02d", i)
		if string(p) != want {
			t.Fatalf("datagram %d = %q, want %q", i, p, want)
		}
	}
	st := tx.Stats()
	if st.TxPackets != n {
		t.Fatalf("TxPackets = %d, want %d", st.TxPackets, n)
	}
	if Batched() && st.TxCalls > 2 {
		t.Fatalf("TxCalls = %d for one %d-packet burst; want <= 2", st.TxCalls, n)
	}
	rst := rx.Stats()
	if rst.RxPackets != n {
		t.Fatalf("RxPackets = %d, want %d", rst.RxPackets, n)
	}
	if Batched() && rst.RxCalls >= n {
		t.Fatalf("RxCalls = %d for %d packets; batching had no effect", rst.RxCalls, n)
	}
}

func TestWriteBatchExplicitAddr(t *testing.T) {
	rx, _ := pairConns(t)
	// Unconnected sender with per-message destination.
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	tx, err := NewConn(pc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	dst := rx.LocalAddrPort()
	ms := make([]Message, 3)
	for i := range ms {
		p := []byte{byte(i), 0xAB}
		ms[i].Buf = p
		ms[i].N = len(p)
		ms[i].Addr = dst
	}
	if n, err := tx.WriteBatch(ms); err != nil || n != 3 {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	got := readAll(t, rx, 4, 3)
	for i, p := range got {
		if len(p) != 2 || p[0] != byte(i) {
			t.Fatalf("datagram %d = %v", i, p)
		}
	}
}

func TestReadBatchSetsSourceAddr(t *testing.T) {
	rx, tx := pairConns(t)
	ms := []Message{{Buf: []byte("x"), N: 1}}
	if _, err := tx.WriteBatch(ms); err != nil {
		t.Fatal(err)
	}
	rms := make([]Message, 2)
	for i := range rms {
		rms[i].Buf = make([]byte, 64)
	}
	rx.UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := rx.ReadBatch(rms)
	if err != nil || n != 1 {
		t.Fatalf("ReadBatch = %d, %v", n, err)
	}
	wantAddr := tx.UDPConn().LocalAddr().(*net.UDPAddr).AddrPort()
	if rms[0].Addr.Port() != wantAddr.Port() {
		t.Fatalf("source = %v, want port %d", rms[0].Addr, wantAddr.Port())
	}
	if !rms[0].Addr.Addr().Is4() && !rms[0].Addr.Addr().Is4In6() {
		t.Fatalf("source addr %v is not v4", rms[0].Addr)
	}
}

func TestReadBatchDeadline(t *testing.T) {
	rx, _ := pairConns(t)
	ms := []Message{{Buf: make([]byte, 64)}}
	rx.UDPConn().SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	n, err := rx.ReadBatch(ms)
	if n != 0 || err == nil {
		t.Fatalf("ReadBatch = %d, %v; want deadline error", n, err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline ignored")
	}
}

func TestReceiverLandsInPoolBufs(t *testing.T) {
	rx, tx := pairConns(t)
	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	r := NewReceiver(rx, pool, 8)
	defer r.Close()

	snd := NewSender(tx, 4, -1) // eager: flush per Queue
	for i := 0; i < 5; i++ {
		b := pool.Get()
		b.SetBytes([]byte{byte('a' + i), 1, 2, 3})
		if err := snd.Queue(b, netip.AddrPort{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}

	rx.UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	for got < 5 {
		n, err := r.Recv()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			b := r.Take(i)
			if b.Len() != 4 {
				t.Fatalf("len = %d, want 4", b.Len())
			}
			if b.Headroom() != pkt.DefaultHeadroom {
				t.Fatalf("headroom = %d, want %d (encap room must survive the rx path)",
					b.Headroom(), pkt.DefaultHeadroom)
			}
			if b.Bytes()[0] != byte('a'+got) {
				t.Fatalf("datagram %d leads with %q", got, b.Bytes()[0])
			}
			if !r.From(i).IsValid() {
				t.Fatal("source address not recorded")
			}
			b.Free()
			got++
		}
	}
}

// TestSenderPartialWaitsForFlush: a partial batch leaves only on the
// owner's Flush — no clock sends it.
func TestSenderPartialWaitsForFlush(t *testing.T) {
	rx, tx := pairConns(t)
	pool := pkt.NewPool(512, 64)
	snd := NewSender(tx, 16, time.Hour)
	b := pool.Get()
	b.SetBytes([]byte("staged"))
	if err := snd.Queue(b, netip.AddrPort{}); err != nil {
		t.Fatal(err)
	}
	if snd.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (a partial batch waits for Flush)", snd.Pending())
	}
	if err := snd.Flush(); err != nil {
		t.Fatal(err)
	}
	if snd.Pending() != 0 {
		t.Fatal("Flush left the batch pending")
	}
	if got := readAll(t, rx, 4, 1); string(got[0]) != "staged" {
		t.Fatalf("got %q", got[0])
	}
}

// TestReceiverPoll: Poll reports an empty socket at once instead of
// parking on it, and lands what is queued when something is.
func TestReceiverPoll(t *testing.T) {
	rx, tx := pairConns(t)
	pool := pkt.NewPool(512, 64)
	r := NewReceiver(rx, pool, 8)
	defer r.Close()
	if n, err := r.Poll(); n != 0 || err != nil {
		t.Fatalf("Poll on an empty socket = %d, %v; want 0, nil", n, err)
	}
	if !Batched() {
		return // the portable substrate cannot poll
	}
	if _, err := tx.UDPConn().Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := r.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Poll never saw the queued datagram")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSenderFullBatchFlushes(t *testing.T) {
	rx, tx := pairConns(t)
	pool := pkt.NewPool(512, 64)
	snd := NewSender(tx, 4, time.Hour)
	for i := 0; i < 4; i++ {
		b := pool.Get()
		b.SetBytes([]byte{byte(i)})
		if err := snd.Queue(b, netip.AddrPort{}); err != nil {
			t.Fatal(err)
		}
	}
	if snd.Pending() != 0 {
		t.Fatalf("Pending = %d after full batch, want 0", snd.Pending())
	}
	readAll(t, rx, 4, 4)
}

func TestPeerTable(t *testing.T) {
	pt := NewPeerTable()
	a1 := netip.MustParseAddrPort("127.0.0.1:1111")
	a2 := netip.MustParseAddrPort("127.0.0.1:2222")
	pt.Learn(0x0A000001, a1)
	if got, ok := pt.Lookup(0x0A000001); !ok || got != a1 {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	pt.Learn(0x0A000001, a1) // unchanged: read-lock path
	pt.Learn(0x0A000001, a2) // re-learn after eNB restart
	if got, _ := pt.Lookup(0x0A000001); got != a2 {
		t.Fatalf("re-learn: Lookup = %v, want %v", got, a2)
	}
	if _, ok := pt.Lookup(0x0A000002); ok {
		t.Fatal("unknown peer resolved")
	}
	if pt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pt.Len())
	}
}

// TestZeroAllocBatchIO guards the acceptance criterion: steady-state
// batched rx and tx perform zero allocations per burst. The pool caches
// are pre-warmed and the peer table pre-learned, as in the daemon's
// steady state.
func TestZeroAllocBatchIO(t *testing.T) {
	rx, tx := pairConns(t)
	pool := pkt.NewPool(512, 64)
	const batch = 8
	r := NewReceiver(rx, pool, batch)
	defer r.Close()
	snd := NewSender(tx, batch, time.Hour)
	defer snd.Close()
	pt := NewPeerTable()
	pt.Learn(1, rx.LocalAddrPort())

	payload := make([]byte, 64)
	rx.UDPConn().SetReadDeadline(time.Now().Add(30 * time.Second))

	round := func(alloc func() *pkt.Buf) {
		for i := 0; i < batch; i++ {
			b := alloc()
			b.SetBytes(payload)
			dst, _ := pt.Lookup(1)
			_ = dst // exercised for the lookup's alloc behaviour; connected conn sends anyway
			if err := snd.Queue(b, netip.AddrPort{}); err != nil {
				t.Fatal(err)
			}
		}
		// Full batch auto-flushed by Queue.
		got := 0
		for got < batch {
			n, err := r.Recv()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				b := r.Take(i)
				r.Cache().Put(b)
				got++
			}
		}
	}
	// Warm round binds the sender's cache and grows the syscall scratch;
	// steady-state rounds then draw send buffers from the sender's own
	// free cycle.
	round(pool.Get)

	steady := func() { round(snd.Cache().Get) }
	if allocs := testing.AllocsPerRun(50, steady); allocs != 0 {
		t.Fatalf("batched rx/tx steady state allocates %.1f allocs/round, want 0", allocs)
	}
}
