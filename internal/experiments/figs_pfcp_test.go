package experiments

import (
	"net"
	"testing"
)

// TestPFCPFigSmoke runs the N4 churn sweep at a tiny scale end to end
// and succeeds the BENCH_pfcp ratchet's shape: both series produce a
// nonzero rate at every worker count, and skipping the modification
// exchange is not slower than the full cycle at any of them — it is a
// strict subset of the work and one fewer round trip per session. A
// point is 1024 sessions: at 256 it lasts 10ms and the worst of the four
// establish+delete / full-cycle ratios was 0.57-1.9 over 100
// regenerations; at 1024 it was 0.80-1.9 (0.68 at 2048, median 1.25)
// over loopback with the workers sharing two CPUs. Asserted: 0.6.
func TestPFCPFigSmoke(t *testing.T) {
	if pc, err := net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	} else {
		pc.Close()
	}
	sc := Quick
	sc.EventsPerPoint = 1024
	res, err := PFCPFig(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 4 {
			t.Fatalf("series %q: want 4 points, got %d", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("series %q: zero rate at %v workers", s.Name, p.X)
			}
		}
	}
	full, nomod := res.Series[0], res.Series[1]
	if full.Name != "establish+modify+delete" || nomod.Name != "establish+delete" {
		t.Fatalf("unexpected series names %q, %q", full.Name, nomod.Name)
	}
	if !timingRatios(t) {
		return
	}
	for i, p := range full.Points {
		if nomod.Points[i].Y < 0.6*p.Y {
			t.Errorf("establish+delete (%.0f/s) < 0.6x the full cycle (%.0f/s) at %v workers",
				nomod.Points[i].Y, p.Y, p.X)
		}
	}
}
