package experiments

import (
	"net"
	"testing"
)

// TestSockioSmoke runs the sockio sweep at a tiny scale end to end and
// succeeds the BENCH_sockio ratchets' shapes: every point produces a
// nonzero rate, the wire series reports fewer syscalls per packet at
// burst 64 than at burst 1, the batched path's best point beats the
// per-packet loop it replaced (1.62-3.25x over 20 regenerations;
// asserted: 1.2x), and in measure-and-sum mode (pinned, as in
// TestFig7Smoke) four queue lanes out-aggregate one (2.48-6.13x;
// asserted: 1.5x) — a derived series, so never a measured number worth
// a ratchet.
func TestSockioSmoke(t *testing.T) {
	if pc, err := net.ListenPacket("udp4", "127.0.0.1:0"); err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	} else {
		pc.Close()
	}
	sc := Quick
	sc.PacketsPerPoint = 8192 * 4 // 8192 packets per point after the /4
	sc.MaxUsers = 4096
	sc.Lanes = "sum"
	res, err := Sockio(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("want 5 series, got %d", len(res.Series))
	}
	for i, s := range res.Series {
		wantPts := 7
		if i == 4 {
			wantPts = 3 // multi-queue sweep: 1/2/4 queues
		}
		if len(s.Points) != wantPts {
			t.Fatalf("series %q: want %d points, got %d", s.Name, wantPts, len(s.Points))
		}
		if s.Derived != (i == 4) {
			t.Fatalf("series %q: Derived=%v; exactly the summed multi-queue sweep is derived", s.Name, s.Derived)
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("series %q: zero rate at x=%.0f", s.Name, p.X)
			}
		}
	}
	wire, legacy, sys, mq := res.Series[0], res.Series[1], res.Series[3], res.Series[4]
	if mq.Name != "PEPC loopback multi-queue" || sys.Name != "syscalls per packet" {
		t.Fatalf("unexpected series order: %q, %q", sys.Name, mq.Name)
	}
	if first, last := sys.Points[0].Y, sys.Points[len(sys.Points)-1].Y; last >= first {
		t.Errorf("syscalls/packet did not fall with burst size: %.3f at 1 vs %.3f at 64", first, last)
	}
	if !timingRatios(t) {
		return
	}
	if mq.Points[2].Y < 1.5*mq.Points[0].Y {
		t.Errorf("4-queue aggregate %.3f Mpps < 1.5x 1-queue %.3f", mq.Points[2].Y, mq.Points[0].Y)
	}
	best := 0.0
	for _, p := range wire.Points {
		if p.Y > best {
			best = p.Y
		}
	}
	if best < legacy.Points[0].Y*1.2 {
		t.Errorf("batched best %.3f Mpps not ahead of per-packet baseline %.3f Mpps", best, legacy.Points[0].Y)
	}
}
