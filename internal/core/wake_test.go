package core

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/sockio"
	"pepc/internal/state"
)

// parkedThread is the smallest data thread that blocks when idle: it
// follows the Waker protocol around a channel receive, syncs, counting
// what it applied, and runs a pass when a packet waits.
type parkedThread struct {
	s      *Slice
	w      Waker
	kicks  chan struct{}
	stop   chan struct{}
	done   chan struct{}
	proc   []*pkt.Buf
	synced int
	// kicked counts kicks delivered (a send into the empty slot), served
	// the passes the thread ran for one; idle is set once its re-check
	// found nothing and it blocks.
	kicked, served atomic.Int64
	idle           atomic.Bool
}

func startParkedThread(s *Slice) *parkedThread {
	p := &parkedThread{s: s, kicks: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{}),
		proc: make([]*pkt.Buf, dataBatch)}
	p.w.Kick = func() {
		select {
		case p.kicks <- struct{}{}:
			p.kicked.Add(1)
		default: // one pending kick is enough
		}
	}
	s.BindData(&p.w)
	go func() {
		defer close(p.done)
		defer s.ReleaseData()
		for {
			p.w.Parked.Store(true)
			woken := false
			if !s.DataPending() {
				p.idle.Store(true)
				select {
				case <-p.kicks:
					woken = true
				case <-p.stop:
					return
				}
				p.idle.Store(false)
			}
			p.w.Parked.Store(false)
			p.synced += s.Data().SyncUpdates()
			if s.Uplink.Len()+s.Downlink.Len() > 0 {
				s.RunPass(p.proc)
			}
			if woken {
				p.served.Add(1)
			}
		}
	}()
	return p
}

func (p *parkedThread) halt() { close(p.stop); <-p.done }

// quiesce waits until the thread has run a pass for every kick delivered
// to it and is blocked again.
func (p *parkedThread) quiesce(t *testing.T) {
	t.Helper()
	waitUntil(t, "the data thread to park", func() bool { return p.served.Load() == p.kicked.Load() && p.idle.Load() })
}

// TestWakerNoLostWakeup: a lone update below updateWakeAt leaves the
// thread parked, and the first packet for the user it inserts brings the
// thread, which syncs before the lookup. Batches of updateWakeAt updates
// pushed while the thread races its park never leave the queue at the
// watermark behind a parked thread — either the push that reaches it sees
// the thread parked and kicks, or the thread's re-check sees the updates.
func TestWakerNoLostWakeup(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	p := startParkedThread(s)
	defer p.halt()

	p.quiesce(t)
	res, err := s.Control().Attach(AttachSpec{IMSI: 1, ENBAddr: 1, DownlinkTEID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.kicked.Load() != 0 || s.updates.Len() != 1 || !p.idle.Load() {
		t.Fatalf("a lone attach woke the parked thread: %d kicks, %d updates queued", p.kicked.Load(), s.updates.Len())
	}
	pool := pkt.NewPool(2048, 128)
	s.enqueue(buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80), true)
	dp := s.Data()
	waitUntil(t, "the first packet to be accounted for", func() bool { return dp.Forwarded.Load()+dp.Dropped.Load() > 0 })
	if dp.Forwarded.Load() != 1 || dp.Missed.Load() != 0 {
		t.Fatalf("first packet after a parked attach: forwarded=%d missed=%d", dp.Forwarded.Load(), dp.Missed.Load())
	}
	drainEgress(s)

	pushAtWatermark(t, s, 5000)
}

// pushAtWatermark pushes n batches of updateWakeAt index deletes, each as
// soon as the queue is below the watermark again — no sleep, so every
// push races the data thread's park. A lost wake-up leaves the queue at
// the watermark behind a parked thread, failed after 10 s.
func pushAtWatermark(t *testing.T, s *Slice, n int) {
	t.Helper()
	batch := make([]state.Update, updateWakeAt)
	for i := range batch {
		batch[i] = state.Update{Op: state.OpDelete, TEID: uint32(i + 100)}
	}
	for i := 0; i < n; i++ {
		s.pushUpdates(batch...)
		deadline := time.Now().Add(10 * time.Second)
		for s.updates.Len() >= updateWakeAt {
			if time.Now().After(deadline) {
				t.Fatalf("batch %d left %d updates behind the parked thread: it missed its wake-up", i, s.updates.Len())
			}
		}
	}
}

// TestPushUpdateWaitsForBoundThread: with a data thread bound, pushing
// past the update queue's capacity waits for the thread instead of
// dropping — every one of 40 000 single pushes is applied, by the thread
// or, for the tail below the watermark, by the next sync.
func TestPushUpdateWaitsForBoundThread(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	p := startParkedThread(s)
	const n = 40_000
	for i := 0; i < n; i++ {
		s.pushUpdates(state.Update{Op: state.OpDelete, TEID: uint32(i + 1)})
	}
	p.halt()
	if got := p.synced + s.Data().SyncUpdates(); got != n {
		t.Fatalf("applied %d of %d pushed updates; the rest were dropped on a full queue", got, n)
	}
	if d := s.Control().Stats().UpdateDrops; d != 0 {
		t.Fatalf("UpdateDrops = %d with a data thread bound", d)
	}
}

// TestPushUpdatesCountsDrops: with no data thread bound the caller
// drives both planes, so updates that do not fit the 16 K queue are shed
// — and counted, not lost silently.
func TestPushUpdatesCountsDrops(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	for i := 0; i < 1<<14+10; i++ {
		s.pushUpdates(state.Update{Op: state.OpDelete, TEID: uint32(i + 1)})
	}
	if d := s.Control().Stats().UpdateDrops; d != 10 {
		t.Fatalf("UpdateDrops = %d after 16 384 + 10 pushes with no thread bound, want 10", d)
	}
}

// TestN4ChurnLeavesDataThreadParked: N4 churn with the data plane idle —
// 1 000 establish/modify/delete lifecycles, two index updates each —
// kicks the parked data thread only when the update queue reaches
// updateWakeAt, yet those wakes sync often enough that deleted sessions'
// contexts keep recycling (a retiree waits two syncs, 2·updateWakeAt
// updates), and a G-PDU steered after the last establishment forwards.
func TestN4ChurnLeavesDataThreadParked(t *testing.T) {
	const lifecycles = 1000
	node := NewNode(SliceConfig{ID: 1, UserHint: 2048})
	s := node.Slice(0)
	u := NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	n4Associate(t, u)
	p := startParkedThread(s)
	defer p.halt()
	p.quiesce(t)

	// request runs one PFCP request the way UPF.Serve does — handle, then
	// flush — and, like an SMF awaiting the reply, gives the data thread
	// the time to finish what the request woke it for.
	seq := uint32(1)
	request := func(m pfcp.Message) pfcp.SessionResponse {
		t.Helper()
		seq++
		m.Seq = seq
		resp := u.Handle(m.Marshal(nil), nil)
		u.Flush()
		p.quiesce(t)
		r, err := pfcp.Unmarshal(resp)
		if err != nil {
			t.Fatalf("response to message type %d: %v", m.Type, err)
		}
		sr, err := pfcp.ParseSessionResponse(&r)
		if err != nil || sr.Cause != pfcp.CauseAccepted {
			t.Fatalf("message type %d: cause %d, err %v", m.Type, sr.Cause, err)
		}
		return sr
	}
	gnb := pkt.IPv4Addr(192, 168, 50, 1)
	establish := func(i int) (seid uint64, teid, ueAddr uint32) {
		teid, ueAddr = 0x5E30_0000+uint32(i), pkt.IPv4Addr(45, 3, byte(i>>8), byte(i))
		sr := request(pfcp.BuildSessionEstablishment(0, n4SessionReq(uint64(i+1), teid, ueAddr, gnb, 0xD000_0000+uint32(i))))
		return sr.FSEID, teid, ueAddr
	}
	for i := 0; i < lifecycles; i++ {
		seid, _, _ := establish(i)
		request(pfcp.BuildSessionModification(0, &pfcp.SessionRequest{
			SEID: seid,
			UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
				OuterHeaderCreation: true, TEID: 0xD100_0000 + uint32(i), Addr: gnb}},
			UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 20_000, MBRDownlinkKbps: 40_000}},
		}))
		request(pfcp.BuildSessionDeletion(0, seid))
	}
	if k, most := p.kicked.Load(), int64(2*lifecycles/updateWakeAt+2); k > most {
		t.Fatalf("%d lifecycles kicked the parked data thread %d times, want at most %d", lifecycles, k, most)
	}
	if r := s.Control().Stats().Recycles; r < lifecycles-updateWakeAt {
		t.Fatalf("Recycles = %d after %d lifecycles, want at least %d: syncs stalled the free list",
			r, lifecycles, lifecycles-updateWakeAt)
	}

	kicked := p.kicked.Load()
	_, teid, ueAddr := establish(lifecycles)
	if p.kicked.Load() != kicked || !s.DataPending() || !p.idle.Load() {
		t.Fatalf("the last establishment woke the parked thread below the watermark (%d updates queued)", s.updates.Len())
	}
	node.SteerUplink(buildUplink(pkt.NewPool(2048, 128), teid, ueAddr, gnb, s.Config().CoreAddr, 80))
	dp := s.Data()
	waitUntil(t, "the G-PDU to be accounted for", func() bool { return dp.Forwarded.Load()+dp.Dropped.Load() > 0 })
	if dp.Forwarded.Load() != 1 || dp.Missed.Load() != 0 {
		t.Fatalf("G-PDU after the last establishment: forwarded=%d missed=%d", dp.Forwarded.Load(), dp.Missed.Load())
	}
	drainEgress(s)
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
