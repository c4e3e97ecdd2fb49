package sockio

import (
	"net/netip"
	"testing"
	"time"

	"pepc/internal/hdr"
	"pepc/internal/pkt"
	"pepc/internal/sim"
)

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
// batched rx and tx perform zero allocations per burst, including both
// offload paths — the burst is two runs (five equal datagrams and a
// shorter one, then two larger ones), which coalesce into two kernel
// messages wherever the kernel offers UDP_SEGMENT, and arrive as two
// coalesced messages the Receiver splits wherever it offers UDP_GRO.
// The pool caches are pre-warmed and the peer table pre-learned, as in
// the daemon's steady state.
func TestZeroAllocBatchIO(t *testing.T) {
	rx, tx := backend{}.pair(t)
	pool := pkt.NewPool(512, 64)
	const batch = 8
	r := NewReceiver(rx, pool, batch)
	defer r.Close()
	snd := NewSender(tx, batch, time.Hour)
	defer snd.Close()
	pt := NewPeerTable()
	pt.Learn(1, rx.LocalAddrPort())

	sizes := [batch]int{64, 64, 64, 64, 64, 32, 100, 100}
	payload := make([]byte, 100)
	rx.UDPConn().SetReadDeadline(time.Now().Add(30 * time.Second))

	round := func(alloc func() *pkt.Buf) {
		for i := 0; i < batch; i++ {
			b := alloc()
			b.SetBytes(payload[:sizes[i]])
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
				if b.Len() != sizes[got] {
					t.Fatalf("datagram %d is %d bytes, want %d", got, b.Len(), sizes[got])
				}
				r.Cache().Put(b)
				got++
			}
		}
	}
	// Warm round binds the sender's cache and grows the syscall scratch;
	// steady-state rounds then draw send buffers from the sender's own
	// free cycle.
	round(pool.Get)

	before, rbefore := tx.Stats(), rx.Stats()
	steady := func() { round(snd.Cache().Get) }
	if allocs := testing.AllocsPerRun(50, steady); allocs != 0 {
		t.Fatalf("batched rx/tx steady state allocates %.1f allocs/round, want 0", allocs)
	}
	st, rst := tx.Stats(), rx.Stats()
	pkts, msgs := st.TxPackets-before.TxPackets, st.TxMsgs-before.TxMsgs
	if tx.gsoOn() && msgs*batch != pkts*2 {
		t.Fatalf("%d datagrams went out as %d kernel messages, want 2 per %d-datagram burst", pkts, msgs, batch)
	}
	rpkts, rmsgs := rst.RxPackets-rbefore.RxPackets, rst.RxMsgs-rbefore.RxMsgs
	if rpkts != pkts || tx.gsoOn() && rx.groOn() && rmsgs >= rpkts {
		t.Fatalf("%d of %d datagrams came in as %d kernel messages (gro %v); the split went unexercised",
			rpkts, pkts, rmsgs, rx.groOn())
	}
}

// TestSenderLatencyRuns: Flush records one sample per stamped datagram,
// settling each run of equal stamps with one RecordN, and skips
// unstamped ones.
func TestSenderLatencyRuns(t *testing.T) {
	_, tx := backend{}.pair(t)
	pool := pkt.NewPool(512, 64)
	snd := NewSender(tx, 8, time.Hour)
	defer snd.Close()
	h := hdr.New()
	snd.SetLatency(h)
	now := sim.Now()
	stamps := []int64{0, now - 5000, now - 5000, now - 5000, 0, now - 90000, now - 90000, 0}
	for _, ts := range stamps {
		b := pool.Get()
		b.SetBytes([]byte("lat"))
		b.Meta.TSNanos = ts
		if err := snd.Queue(b, netip.AddrPort{}); err != nil {
			t.Fatal(err)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("recorded %d samples, want 5 (the stamped datagrams)", h.Count())
	}
	if lo := h.Min(); lo < 4500 {
		t.Fatalf("min %d ns, want about the 5 µs the first run waited or more", lo)
	}
	if hi := h.Max(); hi < 90000 {
		t.Fatalf("max %d ns, want at least the 90 µs the second run waited", hi)
	}
}
