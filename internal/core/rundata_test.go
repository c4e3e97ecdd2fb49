package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pepc/internal/fault"
	"pepc/internal/pkt"
)

// waitUntil polls cond until it holds; a lost wake-up shows up here as a
// hang, failed after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// startRunData runs s's data thread until the returned halt (or the end
// of the test), once it is bound and parked with nothing to do.
func startRunData(t *testing.T, s *Slice) (halt func()) {
	t.Helper()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.RunData(stop)
	}()
	var once sync.Once
	halt = func() { once.Do(func() { close(stop); <-done }) }
	t.Cleanup(halt)
	waitParked(t, s)
	return halt
}

// waitParked waits until s's data thread has found nothing to do and
// blocked.
func waitParked(t *testing.T, s *Slice) {
	t.Helper()
	waitUntil(t, "the data thread to park", func() bool {
		w := s.waker.Load()
		return w != nil && w.Parked.Load() && !s.DataPending()
	})
}

// TestRunDataWake is the channel waker's counterpart of pepcd's
// TestLaneWake: a parked RunData stays parked for an attach's lone index
// update and wakes for the user's first packet, which finds the user; it
// wakes for a steered packet, the extract fence of a migration (which
// gives up after 50 ms, losing the user's QoS levels) and the hand-off of
// the packets a migration buffered; and 1 000 batches that fill the
// update queue to updateWakeAt while it races its park never hang.
func TestRunDataWake(t *testing.T) {
	n := NewNode(SliceConfig{ID: 1, UserHint: 2048}, SliceConfig{ID: 2, UserHint: 2048})
	s0, s1 := n.Slice(0), n.Slice(1)
	startRunData(t, s0)
	startRunData(t, s1)
	pool := pkt.NewPool(2048, 128)

	time.Sleep(time.Millisecond) // let the parked thread reach its receive
	res, err := n.AttachUser(0, AttachSpec{IMSI: 1, ENBAddr: 1, DownlinkTEID: 2,
		AMBRUplink: 100e6, AMBRDownlink: 100e6}) // policed: the data thread builds a limiter
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if q := s0.updates.Len(); q != 1 {
		t.Fatalf("%d updates queued after a lone attach, want it still waiting for the first packet", q)
	}
	n.SteerUplink(buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s0.Config().CoreAddr, 80))
	waitUntil(t, "the first packet to be accounted for", func() bool {
		return s0.Data().Forwarded.Load()+s0.Data().Dropped.Load() > 0
	})
	if f, m := s0.Data().Forwarded.Load(), s0.Data().Missed.Load(); f != 1 || m != 0 {
		t.Fatalf("first packet after a parked attach: forwarded=%d missed=%d", f, m)
	}

	waitParked(t, s0)
	n.SteerUplink(buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s0.Config().CoreAddr, 80))
	waitUntil(t, "a steered packet to forward", func() bool { return s0.Data().Forwarded.Load() == 2 })

	// The fence held iff the source's limiter levels travelled: the
	// target then starts with them seeded, before it sees a packet.
	waitParked(t, s0)
	if err := n.Scheduler().MigrateUser(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !s1.Control().Lookup(1).Hot().Priv.Limiter.Configured() {
		t.Fatal("QoS levels not carried: the extract fence timed out on a parked data thread")
	}

	// Back to slice 0 while the test holds slice 0's control lock, so
	// the user is in flight — extracted from slice 1, its install waiting
	// for the lock — when a packet is steered: it waits in the migration
	// buffer and is handed to slice 0's ring after the install.
	waitParked(t, s0)
	s0.ctrl.mu.Lock()
	migrated := make(chan error, 1)
	go func() { migrated <- n.Scheduler().MigrateUser(1, 1, 0) }()
	waitUntil(t, "the user to leave slice 1", func() bool {
		return n.Demux().lookup(keyOf(res.UplinkTEID, true)) == steerMigrating && s1.Control().Lookup(1) == nil
	})
	n.SteerUplink(buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s0.Config().CoreAddr, 80))
	if got := n.Demux().Buffered.Load(); got != 1 {
		t.Fatalf("buffered = %d, want the in-flight packet", got)
	}
	s0.ctrl.mu.Unlock()
	if err := <-migrated; err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the handed-off packet to forward", func() bool { return s0.Data().Forwarded.Load() == 3 })

	pushAtWatermark(t, s0, 1000)
	drainEgress(s0)
}

// TestRunDataFirstPacketAfterAttach: a user's first packet, steered the
// moment its attach returns, finds the user. The pass syncs after it
// dequeues, so the update pushed before the packet was enqueued is
// always in the indexes in time.
func TestRunDataFirstPacketAfterAttach(t *testing.T) {
	const users = 2000
	n := NewNode(SliceConfig{ID: 1, UserHint: 2 * users})
	s := n.Slice(0)
	startRunData(t, s)
	pool := pkt.NewPool(2048, 128)
	for i := 0; i < users; i++ {
		res, err := n.AttachUser(0, AttachSpec{IMSI: uint64(i + 1), ENBAddr: 1, DownlinkTEID: uint32(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		n.SteerUplink(buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80))
	}
	dp := s.Data()
	waitUntil(t, "every packet to be accounted for", func() bool {
		return dp.Forwarded.Load()+dp.Dropped.Load() >= users // a miss is a drop
	})
	if dp.Missed.Load() != 0 || dp.Forwarded.Load() != users {
		t.Fatalf("forwarded=%d missed=%d dropped=%d of %d first packets: a packet overtook its user's attach",
			dp.Forwarded.Load(), dp.Missed.Load(), dp.Dropped.Load(), users)
	}
	drainEgress(s)
}

// TestRunDataProcessesAllPackets: a producer racing a running RunData
// through the waking enqueue path gets every packet forwarded — none
// stranded by a lost wake-up between the data thread's last pass and its
// park.
func TestRunDataProcessesAllPackets(t *testing.T) {
	const total, inFlight = 5000, 1024 // inFlight < the egress ring: no tail drop
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	res := attachOne(t, s, 1)
	startRunData(t, s)
	pool := pkt.NewPool(2048, 128)
	var drained atomic.Int64
	go func() {
		for i := 0; i < total; i++ {
			for int64(i)-drained.Load() >= inFlight {
				runtime.Gosched()
			}
			b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80)
			for !s.enqueue(b, true) {
				runtime.Gosched()
			}
		}
	}()
	waitUntil(t, "every packet to forward", func() bool {
		drained.Add(int64(drainEgress(s)))
		return drained.Load() == total
	})
	dp := s.Data()
	if f, d := dp.Forwarded.Load(), dp.Dropped.Load(); f != total || d != 0 {
		t.Fatalf("forwarded=%d dropped=%d of %d", f, d, total)
	}
}

// TestRunPassSyncsEveryBatch: housekeeping runs between every batch, not
// every N packets, so an update pushed while the rings hold a backlog is
// in the indexes after the very next pass, however much backlog remains.
func TestRunPassSyncsEveryBatch(t *testing.T) {
	const batch, passes = 8, 10
	s := NewSlice(SliceConfig{ID: 1, UserHint: 256})
	res := attachOne(t, s, 1)
	pool := pkt.NewPool(2048, 128)
	for i := 0; i < batch*passes; i++ {
		s.Uplink.Enqueue(buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80))
	}
	proc := make([]*pkt.Buf, batch)
	for p := 0; p < passes; p++ {
		if _, err := s.Control().Attach(AttachSpec{IMSI: uint64(100 + p), ENBAddr: 1, DownlinkTEID: uint32(100 + p)}); err != nil {
			t.Fatal(err)
		}
		if n := s.RunPass(proc); n != batch {
			t.Fatalf("pass %d processed %d packets, want a full batch of %d", p, n, batch)
		}
		if q := s.updates.Len(); q != 0 {
			t.Fatalf("pass %d left %d updates unsynced behind a backlog of %d packets", p, q, s.Uplink.Len())
		}
	}
	dp := s.Data()
	if f, m := dp.Forwarded.Load(), dp.Missed.Load(); f != batch*passes || m != 0 {
		t.Fatalf("forwarded=%d missed=%d of %d", f, m, batch*passes)
	}
	drainEgress(s)
}

// TestRunDataIdleBurn: a parked RunData costs (almost) no CPU — a
// spinning one would burn the whole 300 ms — and stop ends it, handing
// the binding back.
func TestRunDataIdleBurn(t *testing.T) {
	n := NewNode(SliceConfig{ID: 1, UserHint: 64}, SliceConfig{ID: 2, UserHint: 64})
	halts := []func(){startRunData(t, n.Slice(0)), startRunData(t, n.Slice(1))}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Skipf("getrusage: %v", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	before := cpu()
	time.Sleep(300 * time.Millisecond)
	if burned := cpu() - before; burned >= 30*time.Millisecond {
		t.Fatalf("two idle data threads burned %v of CPU in 300ms, want under 30ms", burned)
	}
	for i, halt := range halts {
		halt()
		if s := n.Slice(i); s.waker.Load() != nil || s.data.running.Load() {
			t.Fatalf("slice %d: still bound after RunData returned", i)
		}
	}
}

// TestRunPassStallInjection: an armed WorkerStall fires once per pass,
// before the pass dequeues — never mid-batch — and loses no packet.
func TestRunPassStallInjection(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	res := attachOne(t, s, 1)
	inj := fault.New(1)
	inj.ArmDelay(fault.WorkerStall, fault.RateMax, 100*time.Microsecond)
	s.SetFaults(inj)
	pool := pkt.NewPool(2048, 128)
	const total = 64
	for i := 0; i < total; i++ {
		s.Uplink.Enqueue(buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, s.Config().CoreAddr, 80))
	}
	proc := make([]*pkt.Buf, 16)
	passes := 1
	for s.RunPass(proc) > 0 {
		passes++
	}
	if fired := inj.Fired(fault.WorkerStall); fired != uint64(passes) {
		t.Fatalf("%d stalls over %d passes, want one per pass", fired, passes)
	}
	if f := s.Data().Forwarded.Load(); f != total {
		t.Fatalf("forwarded %d of %d under stalls", f, total)
	}
	drainEgress(s)
}

// TestRunPassZeroAlloc guards the data thread's pass like the batch
// guards: both rings through the pipeline, and the syncs around them,
// allocate nothing at steady state.
func TestRunPassZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	s, gen := newSteadySlice(t)
	proc := make([]*pkt.Buf, 32)
	run := func() {
		for i := 0; i < 16; i++ {
			s.Uplink.Enqueue(gen.NextUplink())
			s.Downlink.Enqueue(gen.NextDownlink())
		}
		for s.RunPass(proc) > 0 {
		}
		drainEgress(s)
	}
	for i := 0; i < 64; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("the data pass allocates %.2f allocs/op at steady state", avg)
	}
}
