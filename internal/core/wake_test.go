package core

import (
	"net"
	"testing"
	"time"

	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/sockio"
	"pepc/internal/state"
)

// parkedThread is the smallest data thread that blocks when idle: it
// follows the Waker protocol around a channel receive and does nothing
// but sync, counting what it applied.
type parkedThread struct {
	s      *Slice
	w      Waker
	kicks  chan struct{}
	stop   chan struct{}
	done   chan struct{}
	synced int
}

func startParkedThread(s *Slice) *parkedThread {
	p := &parkedThread{s: s, kicks: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	p.w.Kick = func() {
		select {
		case p.kicks <- struct{}{}:
		default: // one pending kick is enough
		}
	}
	s.BindData(&p.w)
	go func() {
		defer close(p.done)
		defer s.ReleaseData()
		for {
			p.w.Parked.Store(true)
			if !s.DataPending() {
				select {
				case <-p.kicks:
				case <-p.stop:
					return
				}
			}
			p.w.Parked.Store(false)
			p.synced += s.Data().SyncUpdates()
		}
	}()
	return p
}

func (p *parkedThread) halt() { close(p.stop); <-p.done }

// TestWakerNoLostWakeup: a producer that pushes one update at a time and
// waits for each to be applied never hangs, however the push interleaves
// with the thread parking — either the push sees it parked and kicks, or
// its re-check sees the push.
func TestWakerNoLostWakeup(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	p := startParkedThread(s)
	defer p.halt()
	for i := 0; i < 5000; i++ {
		s.pushUpdate(state.Update{Op: state.OpDelete, TEID: uint32(i + 1)})
		deadline := time.Now().Add(10 * time.Second)
		for s.DataPending() {
			if time.Now().After(deadline) {
				t.Fatalf("update %d never applied: the parked thread missed its wake-up", i)
			}
			// Busy-wait on purpose: the next push should race the park.
		}
	}
}

// TestPushUpdateWaitsForBoundThread: with a data thread bound, pushing
// past the update queue's capacity waits for the thread instead of
// dropping — every one of 40 000 single pushes is applied.
func TestPushUpdateWaitsForBoundThread(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	p := startParkedThread(s)
	const n = 40_000
	for i := 0; i < n; i++ {
		s.pushUpdate(state.Update{Op: state.OpDelete, TEID: uint32(i + 1)})
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.DataPending() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.halt()
	if p.synced != n {
		t.Fatalf("applied %d of %d pushed updates; the rest were dropped on a full queue", p.synced, n)
	}
}

// TestMigrateWakesParkedThreads: the extract fence needs two syncs from
// the source's data thread. Parked threads must be woken for them, or
// the fence times out (50 ms) and the user's QoS levels are not carried.
func TestMigrateWakesParkedThreads(t *testing.T) {
	n := NewNode(SliceConfig{ID: 1, UserHint: 64}, SliceConfig{ID: 2, UserHint: 64})
	p0, p1 := startParkedThread(n.Slice(0)), startParkedThread(n.Slice(1))
	defer p0.halt()
	defer p1.halt()
	if _, err := n.AttachUser(0, AttachSpec{IMSI: 7, ENBAddr: pkt.IPv4Addr(192, 168, 0, 1), DownlinkTEID: 0x107, ECGI: 7, TAI: 3}); err != nil {
		t.Fatal(err)
	}
	// A lost wake-up costs the full fence timeout every time; a loaded
	// host may slow one try, so the best of three decides.
	var took time.Duration
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond) // let both threads park
		t0 := time.Now()
		if err := n.Scheduler().MigrateUser(7, i%2, (i+1)%2); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		if took = time.Since(t0); took < 25*time.Millisecond {
			return
		}
	}
	t.Fatalf("migration with parked data threads took %v at best: the extract fence was not woken", took)
}

// TestZeroAllocN4Serve: the serve loop's transport — one vectorized read,
// the reply staging, one vectorized write — adds no allocation to what
// handling the request itself costs, so serving a heartbeat (whose
// handling allocates nothing) is allocation free. AllocsPerRun counts
// every goroutine's mallocs, Serve's included.
func TestZeroAllocN4Serve(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	conn, err := sockio.NewConn(pc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	smf, err := net.Dial("udp4", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer smf.Close()
	u := NewUPF(NewNode(SliceConfig{ID: 1, UserHint: 64}), pkt.IPv4Addr(127, 0, 0, 1))
	served := make(chan error, 1)
	go func() { served <- u.Serve(conn) }()

	hb := pfcp.Message{Type: pfcp.MsgHeartbeatRequest, Seq: 9}
	req := hb.Marshal(nil)
	resp := make([]byte, 2048)
	smf.SetReadDeadline(time.Now().Add(30 * time.Second))
	round := func() {
		if _, err := smf.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := smf.Read(resp); err != nil {
			t.Fatal(err)
		}
	}
	round() // grows the reply buffer and the syscall scratch
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("serving a heartbeat allocates %.1f/request, want 0", allocs)
	}
	if r, err := pfcp.Unmarshal(resp); err != nil || r.Type != pfcp.MsgHeartbeatResponse || r.Seq != 9 {
		t.Fatalf("reply: %+v, %v", r, err)
	}
	// A past read deadline stops the loop at its next read.
	conn.UDPConn().SetReadDeadline(time.Unix(1, 0))
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its read deadline passed")
	}
	conn.Close()
}
