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
