package state

import "testing"

func TestU32MapGetBatch(t *testing.T) {
	m := NewU32Map(16)
	ues := make([]*UE, 4)
	for i := range ues {
		ues[i] = &UE{}
		m.Put(uint32(i+1), ues[i])
	}
	keys := []uint32{2, 99, 1, 1, 4}
	out := make([]*HotUE, len(keys))
	m.GetHotBatch(keys, true, out)
	want := []*HotUE{ues[1].Hot(), nil, ues[0].Hot(), ues[0].Hot(), ues[3].Hot()}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %p, want %p", i, out[i], want[i])
		}
	}
	// Empty batch is a no-op, not a panic.
	m.GetHotBatch(nil, true, nil)
}

// TestTwoLevelLookupBatch covers the batched two-level probe: primary
// hits stay lock-free, all primary misses share one secondary read lock,
// fromSecondary marks exactly the secondary-served entries, and the miss
// counter advances per secondary hit.
func TestTwoLevelLookupBatch(t *testing.T) {
	tl := NewTwoLevel(8, 64)
	prim, sec := &UE{}, &UE{}
	tl.InsertSecondary(1, 0x0a000001, prim)
	tl.InsertSecondary(2, 0x0a000002, sec)
	tl.Promote(1, 0x0a000001, prim) // only user 1 is active

	keys := []uint32{1, 2, 404, 1}
	out := make([]*HotUE, len(keys))
	fromSec := make([]bool, len(keys))
	tl.LookupHotBatch(keys, true, out, fromSec)

	if out[0] != prim.Hot() || fromSec[0] {
		t.Fatalf("primary hit: %p fromSec=%v", out[0], fromSec[0])
	}
	if out[1] != sec.Hot() || !fromSec[1] {
		t.Fatalf("secondary hit: %p fromSec=%v", out[1], fromSec[1])
	}
	if out[2] != nil || fromSec[2] {
		t.Fatalf("miss resolved: %p fromSec=%v", out[2], fromSec[2])
	}
	if out[3] != prim.Hot() || fromSec[3] {
		t.Fatalf("repeated primary hit: %p fromSec=%v", out[3], fromSec[3])
	}
	if tl.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", tl.Misses())
	}
	// Downlink domain goes through the IP indexes.
	ipKeys := []uint32{0x0a000002}
	tl.LookupHotBatch(ipKeys, false, out[:1], fromSec[:1])
	if out[0] != sec.Hot() || !fromSec[0] {
		t.Fatalf("ip-domain secondary hit: %p fromSec=%v", out[0], fromSec[0])
	}
	// All-primary batch takes the early return (no secondary lock).
	tl.LookupHotBatch([]uint32{1, 1}, true, out[:2], fromSec[:2])
	if out[0] != prim.Hot() || out[1] != prim.Hot() {
		t.Fatal("all-primary batch failed")
	}
	// Empty batch is a no-op.
	tl.LookupHotBatch(nil, true, nil, nil)
}
