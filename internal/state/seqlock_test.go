package state

import (
	"sync"
	"testing"

	"pepc/internal/qos"
)

// TestSeqlockParity pins the sequence protocol: even when quiescent,
// advanced by exactly 2 per control write (WriteCtrl and Restore), and
// reset by Recycle.
func TestSeqlockParity(t *testing.T) {
	ue := &UE{}
	if got := ue.CtrlSeq(); got != 0 {
		t.Fatalf("fresh seq = %d, want 0", got)
	}
	ue.WriteCtrl(func(c *ControlState) { c.IMSI = 7 })
	if got := ue.CtrlSeq(); got != 2 {
		t.Fatalf("seq after WriteCtrl = %d, want 2", got)
	}
	ue.Restore(ControlState{IMSI: 9}, CounterState{UplinkBytes: 4})
	if got := ue.CtrlSeq(); got != 4 {
		t.Fatalf("seq after Restore = %d, want 4", got)
	}
	var cs ControlState
	ue.ReadCtrlSnapshot(&cs)
	if cs.IMSI != 9 {
		t.Fatalf("snapshot IMSI = %d, want 9", cs.IMSI)
	}
	ue.Hot().Priv.Limiter.ConfigureUser(8_000_000, 8_000_000)
	ue.Hot().Priv.Limiter.ConfigureBearer(1, 8_000_000, 0)
	ue.Recycle()
	if got := ue.CtrlSeq(); got != 0 {
		t.Fatalf("seq after Recycle = %d, want 0", got)
	}
	ue.ReadCtrlSnapshot(&cs)
	if cs.IMSI != 0 || cs.Epoch != 0 {
		t.Fatalf("recycled control state not zeroed: %+v", cs)
	}
	if lim := &ue.Hot().Priv.Limiter; lim.Configured() || *lim != (qos.UserLimiter{}) || ue.Hot().Priv.Epoch != 0 {
		t.Fatalf("recycled Priv not zeroed: %+v", ue.Hot().Priv)
	}
	_, cnt := ue.Snapshot()
	if cnt != (CounterState{}) {
		t.Fatalf("recycled counters not zeroed: %+v", cnt)
	}
}

// TestReadCtrlSnapshotNeverTears hammers one UE with control writes that
// keep two fields correlated (IMSI == GUTI) while a reader snapshots
// concurrently: every snapshot must observe the invariant, i.e. torn
// copies are always detected and retried. In non-race builds this
// exercises the optimistic copy-and-validate path directly; under -race
// the locked fallback makes the same guarantee trivially.
func TestReadCtrlSnapshotNeverTears(t *testing.T) {
	ue := &UE{}
	const writes = 50_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); v <= writes; v++ {
			ue.WriteCtrl(func(c *ControlState) {
				c.IMSI = v
				// Touch enough bytes that a torn copy is likely to be
				// visible if undetected.
				for i := range c.Bearers {
					c.Bearers[i].MBRUplink = v
				}
				c.GUTI = v
			})
		}
	}()
	var cs ControlState
	for {
		ue.ReadCtrlSnapshot(&cs)
		if cs.IMSI != cs.GUTI {
			t.Fatalf("torn snapshot: IMSI=%d GUTI=%d", cs.IMSI, cs.GUTI)
		}
		for i := range cs.Bearers {
			if cs.Bearers[i].MBRUplink != cs.IMSI {
				t.Fatalf("torn snapshot: bearer %d rate=%d IMSI=%d", i, cs.Bearers[i].MBRUplink, cs.IMSI)
			}
		}
		if cs.IMSI == writes {
			break
		}
	}
	wg.Wait()
}

// TestLookupIMSIBatchAndRemoveBatch covers the batched index operations
// the control drain uses: one lock acquisition resolving (and removing)
// many users, nil-filling absent keys.
func TestLookupIMSIBatchAndRemoveBatch(t *testing.T) {
	tb := NewTable(LockModePEPC, 16)
	for i := 1; i <= 4; i++ {
		ue := &UE{}
		ue.WriteCtrl(func(c *ControlState) {
			c.IMSI = uint64(i)
			c.UplinkTEID = uint32(100 + i)
			c.UEAddr = uint32(200 + i)
		})
		if err := tb.Insert(ue); err != nil {
			t.Fatal(err)
		}
	}
	keys := []uint64{2, 99, 4}
	out := make([]*UE, len(keys))
	if n := tb.LookupIMSIBatch(keys, out); n != 2 {
		t.Fatalf("LookupIMSIBatch found %d, want 2", n)
	}
	if out[0] == nil || out[1] != nil || out[2] == nil {
		t.Fatalf("LookupIMSIBatch fill wrong: %v", out)
	}
	if n := tb.RemoveBatch(keys, out); n != 2 {
		t.Fatalf("RemoveBatch removed %d, want 2", n)
	}
	if tb.Len() != 2 {
		t.Fatalf("table len after RemoveBatch = %d, want 2", tb.Len())
	}
	if tb.LookupTEID(102) != nil || tb.LookupTEID(101) == nil {
		t.Fatal("TEID index not maintained by RemoveBatch")
	}
	// Removed users are gone; removing again nil-fills.
	if n := tb.RemoveBatch(keys, out); n != 0 || out[0] != nil {
		t.Fatalf("second RemoveBatch removed %d (out[0]=%v)", n, out[0])
	}
}

// TestDataPathSeqlockSnapshot verifies the PEPC-mode data path reads a
// consistent control snapshot through the table scratch (and that the
// callback sees the values a locked read would).
func TestDataPathSeqlockSnapshot(t *testing.T) {
	tb := NewTable(LockModePEPC, 16)
	ue := &UE{}
	ue.WriteCtrl(func(c *ControlState) {
		c.IMSI = 5
		c.UplinkTEID = 42
		c.UEAddr = 77
		c.AMBRUplink = 1000
	})
	if err := tb.Insert(ue); err != nil {
		t.Fatal(err)
	}
	found := tb.DataPathTEID(42, func(c *ControlState, cnt *CounterState) {
		if c.IMSI != 5 || c.AMBRUplink != 1000 {
			t.Fatalf("snapshot mismatch: %+v", c)
		}
		cnt.UplinkPackets++
	})
	if !found {
		t.Fatal("DataPathTEID missed")
	}
	_, cnt := ue.Snapshot()
	if cnt.UplinkPackets != 1 {
		t.Fatalf("counter write lost: %+v", cnt)
	}
}
