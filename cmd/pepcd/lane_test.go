package main

import (
	"net/netip"
	"syscall"
	"testing"
	"time"

	"pepc"
	"pepc/internal/core"
	"pepc/internal/workload"
)

// attachUsers attaches IMSIs from..from+n-1 to slice si through the node,
// the way an attach storm reaches a lane that is parked with no traffic.
func attachUsers(t *testing.T, node *pepc.Node, si int, from, n int) []workload.User {
	t.Helper()
	users := make([]workload.User, 0, n)
	for i := 0; i < n; i++ {
		imsi := uint64(from + i)
		res, err := node.AttachUser(si, pepc.AttachSpec{IMSI: imsi, ENBAddr: 0xC0A83201,
			DownlinkTEID: 0x0200_0000 | uint32(imsi), ECGI: 1, TAI: 1})
		if err != nil {
			t.Fatalf("attach %d: %v", imsi, err)
		}
		users = append(users, workload.User{IMSI: imsi, UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr})
	}
	return users
}

// woken runs a producer-side action against a parked lane and waits for
// the lane to have taken what it left. A lost wake-up is a hang (fatal
// after 10 s), not a slow pass; the time it reports is how long a live
// one took.
func woken(t *testing.T, s *pepc.Slice, what string, act func()) time.Duration {
	t.Helper()
	t0 := time.Now()
	act()
	waitFor(t, 10*time.Second, "the parked lane to wake for "+what, func() bool { return !s.DataPending() })
	return time.Since(t0)
}

// TestLaneWakeAttachStorm: 40 000 attaches against a lane that is parked
// with no traffic. Each pushes an index update and none wakes the lane on
// its own: the lane is kicked each time the update queue reaches its wake
// watermark, so the 16 K queue never fills, and the updates still below
// the watermark ride the first packets. Each user's first uplink G-PDU
// must forward.
func TestLaneWakeAttachStorm(t *testing.T) {
	n := 40_000
	if testing.Short() {
		n = 20_000 // still past the 16 K update queue
	}
	cfg := testConfig(1, 1, netip.AddrPort{}) // no SGi next-hop: only the counters matter
	cfg.subscribers = n
	cfg.rxBatch, cfg.txBatch = 32, 32
	d := startDaemon(t, cfg)
	s := d.node.Slice(0)

	users := attachUsers(t, d.node, 0, 1, n)
	if drops := s.Control().Stats().UpdateDrops; drops != 0 {
		t.Fatalf("the storm shed %d index updates", drops)
	}

	_, snd := dialGTPU(t, d)
	defer snd.Close()
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 0xC0A83201}, users)
	dp := s.Data()
	for sent := 0; sent < n; {
		for i := 0; i < 1024 && sent < n; i++ {
			if err := snd.Queue(gen.UplinkFor(users[sent]), netip.AddrPort{}); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if err := snd.Flush(); err != nil {
			t.Fatal(err)
		}
		want := uint64(sent)
		waitFor(t, 10*time.Second, "the first packets to be accounted for", func() bool {
			return dp.Forwarded.Load()+dp.Missed.Load()+dp.Dropped.Load()+d.node.Demux().Unknown.Load() >= want
		})
	}
	if dp.Missed.Load() != 0 || dp.Forwarded.Load() != uint64(n) {
		t.Fatalf("after a %d-attach storm on a parked lane: forwarded=%d missed=%d dropped=%d unknown=%d; updates were lost",
			n, dp.Forwarded.Load(), dp.Missed.Load(), dp.Dropped.Load(), d.node.Demux().Unknown.Load())
	}
}

// TestLaneWake covers what must and must not reach a parked lane. A lone
// control→data update must not: it stays queued, and the user's first
// packet, handed to the slice's ring, brings the lane, which syncs before
// the lookup. These must: a packet handed to the ring from outside the
// lane, and a migration (whose extract fence waits for two syncs and
// gives up — losing the user's QoS levels — after 50 ms). Each must wake
// the lane well inside 20 ms at least once in three tries (a loaded host
// may slow one try; a lost wake-up fails them all, as a hang), and 1 000
// update batches at the wake watermark, each racing the lane's park, must
// never hang.
func TestLaneWake(t *testing.T) {
	cfg := testConfig(2, 2, netip.AddrPort{})
	cfg.subscribers = 2000
	d := startDaemon(t, cfg)
	node := d.node
	s0 := node.Slice(0)
	const prompt = 20 * time.Millisecond

	best := func(what string, try func(i int) time.Duration) {
		t.Helper()
		var took time.Duration
		for i := 0; i < 3; i++ {
			if took = try(i); took <= prompt {
				return
			}
		}
		t.Errorf("%s: a parked lane took %v to react on its best of three tries, want at most %v", what, took, prompt)
	}

	time.Sleep(2 * time.Millisecond) // let the lane park
	users := attachUsers(t, node, 0, 1, 1)
	time.Sleep(2 * time.Millisecond)
	if !s0.DataPending() {
		t.Fatal("a lone attach's update was synced: it woke the parked lane")
	}
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 0xC0A83201}, users)
	dp := s0.Data()
	woken(t, s0, "the first packet after an attach", func() { node.SteerUplink(gen.UplinkFor(users[0])) })
	if dp.Forwarded.Load() != 1 || dp.Missed.Load() != 0 {
		t.Fatalf("first packet after a parked attach: forwarded=%d missed=%d", dp.Forwarded.Load(), dp.Missed.Load())
	}

	best("ring hand-off", func(int) time.Duration {
		time.Sleep(2 * time.Millisecond)
		f0 := dp.Forwarded.Load()
		took := woken(t, s0, "a packet handed to its ring", func() { node.SteerUplink(gen.UplinkFor(users[0])) })
		if dp.Forwarded.Load() != f0+1 {
			t.Fatalf("the handed-off packet was not forwarded (forwarded %d → %d)", f0, dp.Forwarded.Load())
		}
		return took
	})

	best("migration", func(i int) time.Duration {
		time.Sleep(2 * time.Millisecond)
		src, dst := i%2, (i+1)%2
		t0 := time.Now()
		if err := node.Scheduler().MigrateUser(users[0].IMSI, src, dst); err != nil {
			t.Fatalf("migrate %d→%d: %v", src, dst, err)
		}
		return time.Since(t0)
	})

	// One drain of a full signaling batch — 256 attach events, the update
	// queue's wake watermark — pushes its 256 index updates in one call.
	imsi := attachUsers(t, node, 0, 100, 1)[0].IMSI
	cp := s0.Control()
	for i := 0; i < 1000; i++ {
		woken(t, s0, "a drain at the wake watermark", func() {
			for j := 0; j < 256; j++ {
				cp.EnqueueSignal(core.SigEvent{Kind: core.SigAttachEvent, IMSI: imsi})
			}
			cp.DrainSignaling(0)
		})
	}
}

// TestLaneIdleBurn: the full daemon wiring with no traffic costs (almost)
// no CPU — every lane, the N4 loop and the S1AP listener are parked in
// their sockets. A single spinning worker would burn the whole 300 ms.
func TestLaneIdleBurn(t *testing.T) {
	cfg := testConfig(2, 2, netip.AddrPort{})
	cfg.n4 = "127.0.0.1:0"
	startDaemon(t, cfg)
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Skipf("getrusage: %v", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	time.Sleep(20 * time.Millisecond) // start-up settles
	before := cpu()
	time.Sleep(300 * time.Millisecond)
	if burned := cpu() - before; burned >= 30*time.Millisecond {
		t.Fatalf("idle daemon burned %v of CPU in 300ms, want under 30ms", burned)
	}
}
