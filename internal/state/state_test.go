package state

import (
	"math/rand"
	"sync"
	"testing"

	"pepc/internal/pcef"
	"pepc/internal/pkt"
)

func newTestUE(imsi uint64, teid, ip uint32) *UE {
	ue := &UE{}
	ue.WriteCtrl(func(c *ControlState) {
		c.IMSI = imsi
		c.UplinkTEID = teid
		c.UEAddr = ip
		c.Attached = true
		c.AddBearer(Bearer{EBI: 5, QCI: QCIBestEffort, MBRUplink: 10e6, MBRDownlink: 50e6})
	})
	return ue
}

// --- Taxonomy (Table 1) ---

func TestStateTaxonomy(t *testing.T) {
	// Every state group PEPC keeps must have exactly one PEPC writer —
	// the single-writer invariant of §3.2.
	for _, row := range Taxonomy {
		ctl := row.Access[CompPEPCControl]
		dat := row.Access[CompPEPCData]
		if ctl == AccessNA && dat == AccessNA {
			if row.Group != GroupControlTunnel {
				t.Fatalf("%v: dropped by PEPC but is not control tunnel state", row.Group)
			}
			continue
		}
		w, ok := PEPCWriter(row.Group)
		if !ok {
			t.Fatalf("%v: no unique PEPC writer (ctl=%v dat=%v)", row.Group, ctl, dat)
		}
		// Per-packet state is written by the data thread, per-event state
		// by the control thread.
		if row.Updates == PerPacket && w != CompPEPCData {
			t.Fatalf("%v: per-packet state written by %v", row.Group, w)
		}
		if row.Updates == PerEvent && w != CompPEPCControl {
			t.Fatalf("%v: per-event state written by %v", row.Group, w)
		}
	}
	// The legacy design duplicates writable state across components for
	// every group except bandwidth counters and location — that's the
	// duplication the paper blames for sync overhead.
	if LegacyWriters(GroupUserID) != 3 || LegacyWriters(GroupQoSPolicy) != 3 ||
		LegacyWriters(GroupDataTunnel) != 3 {
		t.Fatal("legacy duplication rows do not match Table 1")
	}
	if LegacyWriters(GroupBandwidthCounters) != 2 {
		t.Fatal("bandwidth counters must be held by S-GW and P-GW only")
	}
	if got := len(FormatTaxonomy()); got != int(numGroups)+1 {
		t.Fatalf("FormatTaxonomy rows = %d", got)
	}
}

// --- UE locking discipline ---

func TestUEWriteCtrlBumpsEpoch(t *testing.T) {
	ue := &UE{}
	before := ue.Ctrl.Epoch
	ue.WriteCtrl(func(c *ControlState) { c.GUTI = 1 })
	if ue.Ctrl.Epoch != before+1 {
		t.Fatalf("epoch = %d, want %d", ue.Ctrl.Epoch, before+1)
	}
}

func TestUESnapshotRestore(t *testing.T) {
	ue := newTestUE(100, 200, 300)
	ue.WriteCounters(func(c *CounterState) { c.UplinkBytes = 777 })
	cs, cnt := ue.Snapshot()
	clone := &UE{}
	clone.Restore(cs, cnt)
	cs2, cnt2 := clone.Snapshot()
	if cs2.IMSI != 100 || cs2.UplinkTEID != 200 || cs2.UEAddr != 300 || cnt2.UplinkBytes != 777 {
		t.Fatalf("restore mismatch: %+v %+v", cs2, cnt2)
	}
}

func TestUEConcurrentSingleWriterDiscipline(t *testing.T) {
	// Control writes control state while data writes counters; under the
	// race detector this validates the lock split.
	ue := newTestUE(1, 2, 3)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			ue.WriteCtrl(func(c *ControlState) { c.ECGI = uint32(i) })
			ue.ReadCounters(func(c *CounterState) { _ = c.UplinkBytes })
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			ue.ReadCtrl(func(c *ControlState) { _ = c.ECGI })
			ue.WriteCounters(func(c *CounterState) { c.UplinkBytes++ })
		}
	}()
	wg.Wait()
	if _, cnt := ue.Snapshot(); cnt.UplinkBytes != 1000 {
		t.Fatalf("uplink bytes = %d", cnt.UplinkBytes)
	}
}

func TestBearerLimits(t *testing.T) {
	var c ControlState
	for i := 0; i < MaxBearers; i++ {
		if !c.AddBearer(Bearer{EBI: uint8(5 + i)}) {
			t.Fatalf("AddBearer %d failed", i)
		}
	}
	if c.AddBearer(Bearer{EBI: 16}) {
		t.Fatal("AddBearer beyond MaxBearers succeeded")
	}
	if c.DefaultBearer().EBI != 5 {
		t.Fatalf("default bearer EBI = %d", c.DefaultBearer().EBI)
	}
	var empty ControlState
	if empty.DefaultBearer() != nil {
		t.Fatal("empty context has a default bearer")
	}
}

// --- U32Map / U64Map ---

func TestU32MapBasic(t *testing.T) {
	m := NewU32Map(4)
	ue1, ue2 := &UE{}, &UE{}
	if !m.Put(1, ue1) || !m.Put(2, ue2) {
		t.Fatal("put failed")
	}
	if m.Get(1) != ue1 || m.Get(2) != ue2 || m.Get(3) != nil {
		t.Fatal("get mismatch")
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	if m.Delete(1) != ue1 || m.Get(1) != nil || m.Len() != 1 {
		t.Fatal("delete mismatch")
	}
	if m.Delete(1) != nil {
		t.Fatal("double delete returned value")
	}
	// Replace
	m.Put(2, ue1)
	if m.Get(2) != ue1 || m.Len() != 1 {
		t.Fatal("replace mismatch")
	}
}

func TestU32MapRejectsReservedKeys(t *testing.T) {
	m := NewU32Map(4)
	if m.Put(0, &UE{}) || m.Put(5, nil) {
		t.Fatal("reserved put accepted")
	}
	if m.Get(0) != nil || m.Delete(0) != nil {
		t.Fatal("reserved key lookup returned value")
	}
}

// TestAllOnesKeyRoundTrips: the all-ones key is an ordinary key in both
// maps (an SMF may assign it as an F-TEID), not a reserved sentinel.
func TestAllOnesKeyRoundTrips(t *testing.T) {
	ue := &UE{}
	m := NewU32Map(4)
	if !m.Put(^uint32(0), ue) || m.Get(^uint32(0)) != ue || m.Len() != 1 {
		t.Fatal("U32Map: all-ones key not stored")
	}
	out := make([]*HotUE, 1)
	if m.GetHotBatch([]uint32{^uint32(0)}, true, out); out[0] != ue.Hot() {
		t.Fatal("U32Map: batch lookup of the all-ones key missed")
	}
	if m.Delete(^uint32(0)) != ue || m.Get(^uint32(0)) != nil || m.Len() != 0 {
		t.Fatal("U32Map: all-ones key not deleted")
	}
	m64 := NewU64Map(4)
	if !m64.Put(^uint64(0), ue) || m64.Get(^uint64(0)) != ue {
		t.Fatal("U64Map: all-ones key not stored")
	}
	if m64.Delete(^uint64(0)) != ue || m64.Get(^uint64(0)) != nil || m64.Len() != 0 {
		t.Fatal("U64Map: all-ones key not deleted")
	}
}

func TestU32MapGrowth(t *testing.T) {
	m := NewU32Map(4)
	ues := make([]*UE, 10000)
	for i := range ues {
		ues[i] = &UE{}
		if !m.Put(uint32(i+1), ues[i]) {
			t.Fatalf("put %d failed", i)
		}
	}
	if m.Len() != 10000 {
		t.Fatalf("len = %d", m.Len())
	}
	for i := range ues {
		if m.Get(uint32(i+1)) != ues[i] {
			t.Fatalf("get %d mismatch after growth", i)
		}
	}
}

func TestU32MapTombstoneReuse(t *testing.T) {
	m := NewU32Map(16)
	ue := &UE{}
	// Insert/delete churn at the same population must not grow the table
	// unboundedly: tombstones are compacted on grow and reused on insert.
	for i := 0; i < 100000; i++ {
		k := uint32(i%8 + 1)
		m.Put(k, ue)
		m.Delete(k)
	}
	if m.Cap() > 64 {
		t.Fatalf("cap grew to %d under churn", m.Cap())
	}
}

func TestU32MapRange(t *testing.T) {
	m := NewU32Map(8)
	for i := uint32(1); i <= 5; i++ {
		m.Put(i, &UE{})
	}
	seen := map[uint32]bool{}
	m.Range(func(k uint32, v *UE) bool {
		seen[k] = true
		return true
	})
	if len(seen) != 5 {
		t.Fatalf("range saw %d keys", len(seen))
	}
	// Early termination.
	count := 0
	m.Range(func(k uint32, v *UE) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early-stop range visited %d", count)
	}
}

// Property: U32Map agrees with a builtin map under random operations.
func TestU32MapModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewU32Map(4)
	model := map[uint32]*UE{}
	for i := 0; i < 50000; i++ {
		k := uint32(rng.Intn(500) + 1)
		switch rng.Intn(3) {
		case 0:
			v := &UE{}
			m.Put(k, v)
			model[k] = v
		case 1:
			got := m.Delete(k)
			want := model[k]
			delete(model, k)
			if got != want {
				t.Fatalf("delete(%d): got %p want %p", k, got, want)
			}
		default:
			if got, want := m.Get(k), model[k]; got != want {
				t.Fatalf("get(%d): got %p want %p", k, got, want)
			}
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("len: %d vs model %d", m.Len(), len(model))
	}
}

func TestU64MapModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewU64Map(4)
	model := map[uint64]*UE{}
	for i := 0; i < 50000; i++ {
		k := uint64(rng.Intn(500) + 1)
		switch rng.Intn(3) {
		case 0:
			v := &UE{}
			m.Put(k, v)
			model[k] = v
		case 1:
			got := m.Delete(k)
			want := model[k]
			delete(model, k)
			if got != want {
				t.Fatalf("delete(%d): got %p want %p", k, got, want)
			}
		default:
			if got, want := m.Get(k), model[k]; got != want {
				t.Fatalf("get(%d): got %p want %p", k, got, want)
			}
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("len: %d vs model %d", m.Len(), len(model))
	}
}

// BenchmarkU32MapLookupScaling quantifies how lookup cost grows with
// table size under two access patterns. It backs EXPERIMENTS.md's pinned
// "Figure 14" section: with this bucketed per-domain index, even a
// 1M-entry table costs about one cache line per probe when the accessed
// subset is hot, which is why a two-level table in front of it did not
// pay here, unlike in the paper.
func BenchmarkU32MapLookupScaling(b *testing.B) {
	for _, size := range []int{10_000, 100_000, 1_000_000} {
		m := NewU32Map(size)
		ues := make([]*UE, size)
		for i := 0; i < size; i++ {
			ues[i] = &UE{}
			m.Put(uint32(i+1), ues[i])
		}
		b.Run("uniform/"+itoa(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m.Get(uint32(i%size+1)) == nil {
					b.Fatal("miss")
				}
			}
		})
		b.Run("hot1pct/"+itoa(size), func(b *testing.B) {
			hot := size / 100
			if hot < 1 {
				hot = 1
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m.Get(uint32(i%hot+1)) == nil {
					b.Fatal("miss")
				}
			}
		})
	}
}

func itoa(n int) string {
	switch n {
	case 10_000:
		return "10K"
	case 100_000:
		return "100K"
	case 1_000_000:
		return "1M"
	}
	return "?"
}

func TestSelectBearerTFTOrder(t *testing.T) {
	var c ControlState
	if c.SelectBearer(pktFlow(80)) != -1 {
		t.Fatal("bearerless context must select -1")
	}
	c.AddBearer(Bearer{EBI: 5, QCI: QCIBestEffort}) // default: wildcard
	c.AddBearer(Bearer{EBI: 6, QCI: QCIConversationalVoice,
		TFT: bearerFilter(4000, 4010)})
	c.AddBearer(Bearer{EBI: 7, QCI: QCIConversationalVideo,
		TFT: bearerFilter(4005, 4020)}) // overlaps; lower index wins
	if got := c.SelectBearer(pktFlow(80)); got != 0 {
		t.Fatalf("web flow -> bearer %d, want default 0", got)
	}
	if got := c.SelectBearer(pktFlow(4005)); got != 1 {
		t.Fatalf("voice flow -> bearer %d, want 1 (first matching TFT)", got)
	}
	if got := c.SelectBearer(pktFlow(4015)); got != 2 {
		t.Fatalf("video flow -> bearer %d, want 2", got)
	}
}

func pktFlow(dport uint16) pkt.Flow {
	return pkt.Flow{Src: 1, Dst: 2, SrcPort: 999, DstPort: dport, Proto: pkt.ProtoUDP}
}

func bearerFilter(lo, hi uint16) pcef.FilterSpec {
	return pcef.FilterSpec{Proto: pkt.ProtoUDP, DstPortLo: lo, DstPortHi: hi}
}
