package sockio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"testing"
	"time"

	"pepc/internal/pkt"
)

// The Conn contract, run over every substrate this platform has: the
// vectorized one (recvmmsg/sendmmsg, UDP segmentation offload, and
// UDP_GRO on a Receiver's conn) where it exists, the same with UDP_GRO
// kept off, and the portable one-datagram one (batch_portable.go)
// everywhere. Each test runs one subtest per backend; what differs
// between them is only how many kernel crossings and messages a burst
// costs, never what a peer receives.

// backend is one substrate of the Conn contract.
type backend struct {
	name     string
	portable bool
	noGRO    bool
}

// forEachBackend runs f once per substrate available here.
func forEachBackend(t *testing.T, f func(t *testing.T, be backend)) {
	bs := []backend{{name: "portable", portable: true}}
	if Batched() {
		bs = append([]backend{{name: "vectorized"}, {name: "vectorized-nogro", noGRO: true}}, bs...)
	}
	for _, be := range bs {
		t.Run(be.name, func(t *testing.T) { f(t, be) })
	}
}

// wrap makes uc a Conn on the backend, closed at the end of the test.
func (be backend) wrap(t *testing.T, uc *net.UDPConn) *Conn {
	t.Helper()
	c, err := NewConn(uc)
	if err != nil {
		t.Fatal(err)
	}
	c.portable = be.portable
	c.noGRO = be.noGRO
	t.Cleanup(func() { c.Close() })
	return c
}

// bound returns an unconnected conn on a loopback port, skipping when
// the environment forbids sockets.
func (be backend) bound(t *testing.T) *Conn {
	t.Helper()
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	uc := pc.(*net.UDPConn)
	_ = uc.SetReadBuffer(SocketBuffer) // the GSO shapes queue ~100 KB at once
	return be.wrap(t, uc)
}

// pair returns a bound receiver conn and a sender conn connected to it.
func (be backend) pair(t *testing.T) (rx, tx *Conn) {
	t.Helper()
	rx = be.bound(t)
	suc, err := net.Dial("udp4", rx.LocalAddrPort().String())
	if err != nil {
		t.Skipf("loopback UDP dial: %v", err)
	}
	return rx, be.wrap(t, suc.(*net.UDPConn))
}

// readAll reads from rx until want datagrams arrived or the deadline
// passes, returning payload copies.
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

// TestBatchRoundTrip (order): one burst arrives whole and in order, and
// the counters say what each backend paid for it — the vectorized one
// a single crossing each way, the portable one a crossing per datagram.
func TestBatchRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
		const n = 17
		ms := make([]Message, n)
		for i := range ms {
			p := []byte(fmt.Sprintf("datagram-%02d", i))
			ms[i].Buf = p
			ms[i].N = len(p) // connected socket: zero Addr
		}
		sent, err := tx.WriteBatch(ms)
		if err != nil || sent != n {
			t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
		}
		got := readAll(t, rx, 8, n)
		for i, p := range got {
			if want := fmt.Sprintf("datagram-%02d", i); string(p) != want {
				t.Fatalf("datagram %d = %q, want %q", i, p, want)
			}
		}
		st, rst := tx.Stats(), rx.Stats()
		if st.TxPackets != n || rst.RxPackets != n {
			t.Fatalf("TxPackets = %d, RxPackets = %d; want %d", st.TxPackets, rst.RxPackets, n)
		}
		if be.portable {
			if st.TxCalls != n || st.TxMsgs != n || rst.RxCalls != n {
				t.Fatalf("portable: TxCalls %d, TxMsgs %d, RxCalls %d; want one each per datagram (%d)",
					st.TxCalls, st.TxMsgs, rst.RxCalls, n)
			}
			return
		}
		if st.TxCalls > 2 {
			t.Fatalf("TxCalls = %d for one %d-packet burst; want <= 2", st.TxCalls, n)
		}
		if rst.RxCalls >= n {
			t.Fatalf("RxCalls = %d for %d packets; batching had no effect", rst.RxCalls, n)
		}
		if wantMsgs := uint64(n); tx.gsoOn() && st.TxMsgs != 1 || !tx.gsoOn() && st.TxMsgs != wantMsgs {
			t.Fatalf("TxMsgs = %d for one run of %d equal datagrams (gso %v)", st.TxMsgs, n, tx.gsoOn())
		}
	})
}

// TestWriteBatchExplicitAddr: an unconnected sender routes each datagram
// by its Message.Addr, in both directions of a pair of bound sockets.
func TestWriteBatchExplicitAddr(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.bound(t), be.bound(t)
		ms := make([]Message, 3)
		for i := range ms {
			p := []byte{byte(i), 0xAB}
			ms[i] = Message{Buf: p, N: len(p), Addr: rx.LocalAddrPort()}
		}
		if n, err := tx.WriteBatch(ms); err != nil || n != 3 {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		for i, p := range readAll(t, rx, 4, 3) {
			if len(p) != 2 || p[0] != byte(i) || p[1] != 0xAB {
				t.Fatalf("datagram %d = %v", i, p)
			}
		}
		back := []Message{{Buf: []byte("reply"), N: 5, Addr: tx.LocalAddrPort()}}
		if n, err := rx.WriteBatch(back); err != nil || n != 1 {
			t.Fatalf("reply WriteBatch = %d, %v", n, err)
		}
		if got := readAll(t, tx, 4, 1); string(got[0]) != "reply" {
			t.Fatalf("reply = %q", got[0])
		}
	})
}

func TestReadBatchSetsSourceAddr(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
		if _, err := tx.WriteBatch([]Message{{Buf: []byte("x"), N: 1}}); err != nil {
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
		if rms[0].Addr != tx.LocalAddrPort() {
			t.Fatalf("source = %v, want %v", rms[0].Addr, tx.LocalAddrPort())
		}
	})
}

// TestReadBatchTruncates pins what a datagram longer than its buffer
// becomes: the buffer's worth of its head, N = len(Buf), marked
// Truncated and counted in RxTrunc, and nothing of its tail leaks into
// the next message.
func TestReadBatchTruncates(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
		long := make([]byte, 300)
		for i := range long {
			long[i] = byte(i)
		}
		ms := []Message{{Buf: long, N: len(long)}, {Buf: []byte("short"), N: 5}}
		if n, err := tx.WriteBatch(ms); err != nil || n != 2 {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		rms := []Message{{Buf: make([]byte, 64)}, {Buf: make([]byte, 64)}}
		rx.UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
		var got [][]byte
		var trunc []bool
		for len(got) < 2 {
			n, err := rx.ReadBatch(rms)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				got = append(got, append([]byte(nil), rms[i].Buf[:rms[i].N]...))
				trunc = append(trunc, rms[i].Truncated)
			}
		}
		if string(got[0]) != string(long[:64]) {
			t.Fatalf("truncated datagram = %v, want the first 64 bytes", got[0])
		}
		if string(got[1]) != "short" {
			t.Fatalf("next datagram = %q, want \"short\"", got[1])
		}
		if !trunc[0] || trunc[1] {
			t.Fatalf("Truncated = %v, want only the long datagram marked", trunc)
		}
		if st := rx.Stats(); st.RxTrunc != 1 || st.RxPackets != 2 {
			t.Fatalf("RxTrunc = %d, RxPackets = %d; want 1 and 2", st.RxTrunc, st.RxPackets)
		}
	})
}

// TestReadBatchDeadline: a read deadline ends a parked read, and so
// does the lane's kick — a deadline in the past set from another
// goroutine — after which a cleared deadline reads normally again.
func TestReadBatchDeadline(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
		ms := []Message{{Buf: make([]byte, 64)}}
		rx.UDPConn().SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		start := time.Now()
		if n, err := rx.ReadBatch(ms); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("ReadBatch = %d, %v; want the deadline error", n, err)
		}
		if time.Since(start) > 3*time.Second {
			t.Fatal("deadline ignored")
		}

		rx.UDPConn().SetReadDeadline(time.Time{})
		done := make(chan error, 1)
		go func() {
			n, err := rx.ReadBatch(ms)
			if n != 0 {
				err = fmt.Errorf("kicked read returned %d datagrams", n)
			}
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		rx.UDPConn().SetReadDeadline(time.Unix(1, 0))
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("kicked read: %v, want the deadline error", err)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("the kick did not end the parked read")
		}

		rx.UDPConn().SetReadDeadline(time.Time{})
		if _, err := tx.WriteBatch([]Message{{Buf: []byte("after"), N: 5}}); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, rx, 1, 1); string(got[0]) != "after" {
			t.Fatalf("read after the kick = %q", got[0])
		}
	})
}

// TestWriteBatchClosed: a write on a closed socket fails whole — nothing
// counted as sent — and so does a read. The portable backend still
// tallies the one crossing it attempted.
func TestWriteBatchClosed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
		tx.Close()
		ms := []Message{{Buf: []byte("a"), N: 1}, {Buf: []byte("b"), N: 1}}
		if n, err := tx.WriteBatch(ms); err == nil || n != 0 {
			t.Fatalf("write on a closed socket = %d, %v", n, err)
		}
		if st := tx.Stats(); st.TxPackets != 0 || st.TxMsgs != 0 {
			t.Fatalf("closed socket counted %d packets, %d messages", st.TxPackets, st.TxMsgs)
		}
		if st := tx.Stats(); be.portable && st.TxCalls != 1 {
			t.Fatalf("portable: closed-socket write counted %d crossings, want 1", st.TxCalls)
		}
		rx.Close()
		if n, err := rx.ReadBatch([]Message{{Buf: make([]byte, 8)}}); err == nil || n != 0 {
			t.Fatalf("read on a closed socket = %d, %v", n, err)
		}
	})
}

// TestReceiverLandsInPoolBufs (buffer ownership): each datagram lands in
// its own pool buffer with the encap headroom intact; Take hands the
// buffer over and the next Recv draws a fresh one for that slot, while a
// buffer not taken is reused in place.
func TestReceiverLandsInPoolBufs(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
		pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
		r := NewReceiver(rx, pool, 8)
		defer r.Close()

		snd := NewSender(tx, 4, -1) // eager: flush per Queue
		send := func(lead byte) {
			b := pool.Get()
			b.SetBytes([]byte{lead, 1, 2, 3})
			if err := snd.Queue(b, netip.AddrPort{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			send(byte('a' + i))
		}
		rx.UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
		for got := 0; got < 5; {
			n, err := r.Recv()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				b := r.Take(i)
				if b.Len() != 4 || b.Bytes()[0] != byte('a'+got) {
					t.Fatalf("datagram %d = %v", got, b.Bytes())
				}
				if b.Headroom() != pkt.DefaultHeadroom {
					t.Fatalf("headroom = %d, want %d (encap room must survive the rx path)",
						b.Headroom(), pkt.DefaultHeadroom)
				}
				if !r.From(i).IsValid() {
					t.Fatal("source address not recorded")
				}
				b.Free()
				got++
			}
		}

		recvOne := func(lead byte) *pkt.Buf {
			send(lead)
			if n, err := r.Recv(); err != nil || n != 1 {
				t.Fatalf("Recv = %d, %v", n, err)
			}
			if b := r.Buf(0); b.Bytes()[0] != lead {
				t.Fatalf("slot 0 holds %v, want a datagram led by %q", b.Bytes(), lead)
			}
			return r.Buf(0)
		}
		kept := recvOne('x') // not taken: the receiver still owns it
		if again := recvOne('y'); again != kept {
			t.Fatal("a buffer not taken was not reused for the next datagram")
		}
		taken := r.Take(0)
		if next := recvOne('z'); next == taken {
			t.Fatal("a taken buffer was read into again")
		}
		taken.Free()
		snd.Close()
	})
}

// TestSenderPartialWaitsForFlush: a partial batch leaves only on the
// owner's Flush — no clock sends it.
func TestSenderPartialWaitsForFlush(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
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
	})
}

func TestSenderFullBatchFlushes(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
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
	})
}

// TestReceiverPoll: Poll reports an empty socket at once instead of
// parking on it. The vectorized backend then lands what is queued; the
// portable one cannot poll and keeps reporting nothing, leaving the
// datagram to Recv.
func TestReceiverPoll(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
		pool := pkt.NewPool(512, 64)
		r := NewReceiver(rx, pool, 8)
		defer r.Close()
		if n, err := r.Poll(); n != 0 || err != nil {
			t.Fatalf("Poll on an empty socket = %d, %v; want 0, nil", n, err)
		}
		if _, err := tx.UDPConn().Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if be.portable {
			if n, err := r.Poll(); n != 0 || err != nil {
				t.Fatalf("portable Poll = %d, %v; want 0, nil", n, err)
			}
			rx.UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := r.Recv(); n != 1 || err != nil {
				t.Fatalf("Recv after Poll = %d, %v", n, err)
			}
			return
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
	})
}

// gsoShape is one burst layout and the segmented messages (datagrams
// per message, in order) the kernel must be handed for it when UDP
// segmentation offload is on. Each datagram goes to peer dst[i] (0 or
// 1; nil means all to 0).
type gsoShape struct {
	name string
	lens []int
	dst  []int
	runs []int
}

func repeatLen(n, l int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = l
	}
	return out
}

var gsoShapes = []gsoShape{
	{name: "equal", lens: repeatLen(8, 100), runs: []int{8}},
	{name: "shorter-last", lens: append(repeatLen(5, 100), 40, 100), runs: []int{6, 1}},
	{name: "larger-breaks", lens: []int{100, 100, 100, 200, 100, 100}, runs: []int{3, 2, 1}},
	{name: "alternating-dst", lens: repeatLen(6, 100), dst: []int{0, 1, 0, 1, 0, 1}, runs: []int{1, 1, 1, 1, 1, 1}},
	{name: "split-dst", lens: repeatLen(6, 100), dst: []int{0, 0, 0, 1, 1, 1}, runs: []int{3, 3}},
	{name: "65-segments", lens: repeatLen(65, 50), runs: []int{64, 1}},
	{name: "over-64KB", lens: repeatLen(50, 1400), runs: []int{46, 4}},
	{name: "zero-length", lens: []int{0, 10, 10, 0, 0, 10}, runs: []int{1, 2, 1, 1, 1}},
	{name: "lone", lens: []int{100}, runs: []int{1}},
}

// build lays the shape out as messages to peers, each payload unique
// (its index and a position pattern) so reordering or a misplaced
// segment boundary shows byte for byte.
func (sh gsoShape) build(peers [2]netip.AddrPort) []Message {
	ms := make([]Message, len(sh.lens))
	for i, l := range sh.lens {
		p := make([]byte, l)
		for j := range p {
			p[j] = byte(i*7 + j)
		}
		if l >= 2 {
			p[0], p[1] = byte(i), byte(i>>8)
		}
		d := 0
		if sh.dst != nil {
			d = sh.dst[i]
		}
		ms[i] = Message{Buf: p, N: l, Addr: peers[d]}
	}
	return ms
}

// checkDelivered reads each peer's share of ms and compares it byte for
// byte and in order.
func checkDelivered(t *testing.T, sh gsoShape, ms []Message, peers [2]*Conn) {
	t.Helper()
	for d, rx := range peers {
		var want [][]byte
		for i := range ms {
			if ms[i].Addr == rx.LocalAddrPort() {
				want = append(want, ms[i].Buf[:ms[i].N])
			}
		}
		if len(want) == 0 {
			continue
		}
		got := readAll(t, rx, 8, len(want))
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("%s: peer %d datagram %d: got %d bytes %.8x…, want %d bytes %.8x…",
					sh.name, d, i, len(got[i]), got[i], len(want[i]), want[i])
			}
		}
	}
}

// TestGSORuns sends each burst layout through WriteBatch and checks what
// every peer receives, byte for byte and in order, and how many messages
// the kernel was handed: one per run with segmentation on, one per
// datagram without it.
func TestGSORuns(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		peers := [2]*Conn{be.bound(t), be.bound(t)}
		tx := be.bound(t)
		for _, sh := range gsoShapes {
			ms := sh.build([2]netip.AddrPort{peers[0].LocalAddrPort(), peers[1].LocalAddrPort()})
			before := tx.Stats()
			if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
				t.Fatalf("%s: WriteBatch = %d, %v; want %d", sh.name, n, err, len(ms))
			}
			checkDelivered(t, sh, ms, peers)
			st := tx.Stats()
			msgs := len(ms)
			if !be.portable && tx.gsoOn() {
				msgs = len(sh.runs)
			}
			if d := st.TxPackets - before.TxPackets; d != uint64(len(ms)) {
				t.Fatalf("%s: TxPackets grew by %d, want %d", sh.name, d, len(ms))
			}
			if d := st.TxMsgs - before.TxMsgs; d != uint64(msgs) {
				t.Fatalf("%s: kernel took %d messages, want %d", sh.name, d, msgs)
			}
		}
	})
}

// TestReceiverDropsOversized: a datagram longer than a pool buffer's
// RecvSlice (1,920 bytes in a default pool) is dropped and counted,
// never delivered clipped, and the datagram after it is delivered — on
// the GRO path both arrive as one coalesced message.
func TestReceiverDropsOversized(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx, tx := be.pair(t)
		pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
		r := NewReceiver(rx, pool, 8)
		defer r.Close()
		long := make([]byte, 2000)
		ms := []Message{{Buf: long, N: len(long)}, {Buf: []byte("after"), N: 5}}
		if n, err := tx.WriteBatch(ms); err != nil || n != 2 {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		rx.UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := r.Recv()
		if err != nil || n != 1 {
			t.Fatalf("Recv = %d, %v; want the one datagram that fits", n, err)
		}
		if got := r.Buf(0).Bytes(); string(got) != "after" {
			t.Fatalf("delivered %d bytes %.8x…, want \"after\"", len(got), got)
		}
		if st := rx.Stats(); st.RxTrunc != 1 || st.RxPackets != 2 {
			t.Fatalf("RxTrunc = %d, RxPackets = %d; want 1 and 2", st.RxTrunc, st.RxPackets)
		}
	})
}

// rxSend is one WriteBatch of a receive shape: datagrams of lens from
// sender 0 or 1, each shape chosen to be one segmented run.
type rxSend struct {
	from int
	lens []int
}

// rxShapes are what a Receiver must deliver whatever the kernel
// coalesced: each send is one run, so with UDP_GRO (and UDP_SEGMENT at
// the sender) each reaches the receiver as one message.
var rxShapes = []struct {
	name  string
	batch int
	sends []rxSend
}{
	{name: "equal", batch: 8, sends: []rxSend{{0, repeatLen(8, 100)}}},
	{name: "shorter-last", batch: 8, sends: []rxSend{{0, append(repeatLen(5, 100), 40)}}},
	{name: "longer-than-batch", batch: 4, sends: []rxSend{{0, repeatLen(30, 200)}}},
	{name: "two-senders", batch: 8, sends: []rxSend{
		{0, repeatLen(5, 100)}, {1, repeatLen(4, 60)}, {0, repeatLen(3, 100)}, {1, repeatLen(6, 60)}}},
	{name: "run-then-lone", batch: 8, sends: []rxSend{{0, repeatLen(6, 120)}, {0, []int{300}}}},
}

// TestReceiverRuns sends each receive shape and reads it back at a
// Receiver: every datagram byte for byte, in order, with its sender's
// address and the pool's headroom, at most a batch per Recv. Everything
// is sent before the first Recv and nothing after, so datagrams carried
// over from a coalesced run must come out of the next Recvs with no
// further arrival, no deadline hit and no syscall.
func TestReceiverRuns(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be backend) {
		rx := be.bound(t)
		txs := [2]*Conn{be.bound(t), be.bound(t)}
		pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
		for _, sh := range rxShapes {
			r := NewReceiver(rx, pool, sh.batch)
			var want [][]byte
			var from []netip.AddrPort
			for _, sd := range sh.sends {
				ms := make([]Message, len(sd.lens))
				for i, l := range sd.lens {
					p := make([]byte, l)
					for j := range p {
						p[j] = byte(len(want)*13 + j)
					}
					p[0] = byte(len(want))
					ms[i] = Message{Buf: p, N: l, Addr: rx.LocalAddrPort()}
					want = append(want, p)
					from = append(from, txs[sd.from].LocalAddrPort())
				}
				if n, err := txs[sd.from].WriteBatch(ms); err != nil || n != len(ms) {
					t.Fatalf("%s: WriteBatch = %d, %v", sh.name, n, err)
				}
			}
			before := rx.Stats()
			rx.UDPConn().SetReadDeadline(time.Now().Add(5 * time.Second))
			for got := 0; got < len(want); {
				carried, calls := r.next < r.landed, rx.Stats().RxCalls
				n, err := r.Recv()
				if err != nil {
					t.Fatalf("%s: Recv after %d of %d datagrams: %v", sh.name, got, len(want), err)
				}
				if n > sh.batch {
					t.Fatalf("%s: Recv returned %d datagrams, more than the batch of %d", sh.name, n, sh.batch)
				}
				if carried && rx.Stats().RxCalls != calls {
					t.Fatalf("%s: serving carried-over datagrams cost a syscall", sh.name)
				}
				for i := 0; i < n; i++ {
					b := r.Buf(i)
					if string(b.Bytes()) != string(want[got]) {
						t.Fatalf("%s: datagram %d: got %d bytes %.8x…, want %d bytes %.8x…",
							sh.name, got, b.Len(), b.Bytes(), len(want[got]), want[got])
					}
					if r.From(i) != from[got] {
						t.Fatalf("%s: datagram %d from %v, want %v", sh.name, got, r.From(i), from[got])
					}
					if b.Headroom() != pkt.DefaultHeadroom {
						t.Fatalf("%s: headroom %d, want %d", sh.name, b.Headroom(), pkt.DefaultHeadroom)
					}
					got++
				}
			}
			if n, err := r.Poll(); n != 0 || err != nil {
				t.Fatalf("%s: Poll after the last datagram = %d, %v; want 0, nil", sh.name, n, err)
			}
			st := rx.Stats()
			pkts, msgs := st.RxPackets-before.RxPackets, st.RxMsgs-before.RxMsgs
			wantMsgs := uint64(len(want))
			if rx.groOn() && txs[0].gsoOn() {
				wantMsgs = uint64(len(sh.sends))
			}
			if pkts != uint64(len(want)) || msgs != wantMsgs {
				t.Fatalf("%s: %d datagrams in %d messages, want %d in %d (gro %v)",
					sh.name, pkts, msgs, len(want), wantMsgs, rx.groOn())
			}
			r.Close()
		}
		if want := Batched() && !be.portable && !be.noGRO; rx.groOn() != want {
			t.Fatalf("UDP_GRO on = %v, want %v", rx.groOn(), want)
		}
	})
}
