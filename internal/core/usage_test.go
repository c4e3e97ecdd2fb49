package core

import (
	"testing"

	"pepc/internal/hss"
	"pepc/internal/pcrf"
	"pepc/internal/pkt"
	"pepc/internal/sim"
)

func TestCollectAllUsage(t *testing.T) {
	hssDB := hss.New()
	hssDB.ProvisionRange(1, 10, 10e6, 50e6)
	policy := pcrf.New()
	s := NewSlice(SliceConfig{ID: 1, UserHint: 32})
	s.Control().SetProxy(NewProxy(hssDB, policy))
	users := make([]AttachResult, 3)
	for i := range users {
		res, err := s.Control().Attach(AttachSpec{IMSI: uint64(i + 1), ENBAddr: 1, DownlinkTEID: uint32(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		users[i] = res
	}
	s.Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	// Traffic for users 1 and 2 only; user 3 stays idle.
	for i := 0; i < 2; i++ {
		for p := 0; p < 4; p++ {
			b := buildUplink(pool, users[i].UplinkTEID, users[i].UEAddr, 1, s.Config().CoreAddr, 80)
			s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
		}
	}
	drainEgress(s)

	reports := s.Control().CollectAllUsage(sim.Now())
	if len(reports) != 2 {
		t.Fatalf("busy CDRs = %d, want 2", len(reports))
	}
	for _, r := range reports {
		if r.CDR.Delta.UplinkPackets != 4 {
			t.Fatalf("CDR delta: %+v", r.CDR.Delta)
		}
		if !r.ReportedToPCRF {
			t.Fatal("usage not reported to PCRF")
		}
	}
	// Second round with no new traffic: nothing to report.
	if reports := s.Control().CollectAllUsage(sim.Now()); len(reports) != 0 {
		t.Fatalf("idle round produced %d reports", len(reports))
	}
}
