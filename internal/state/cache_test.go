package state

import (
	"math/rand"
	"testing"

	"pepc/internal/pkt"
)

// Tests for the cache-conscious store (DESIGN.md §4.10): bucket-probing
// index behaviour under churn, the data-path indexes against a map model,
// and the zero-allocation guarantees the data path depends on.

// probeBuckets32 counts the buckets a lookup of key loads (1 = found or
// missed in the home bucket). Each bucket is one cache line, so this is
// also the probe's line count. Mirrors getHinted.
func probeBuckets32(t *table32, key uint32) int {
	h := pkt.HashUint32(key)
	fp := fpOf(h)
	bi := h & t.bmask
	loads := 0
	for step := uint64(1); ; step++ {
		b := &t.b[bi]
		loads++
		for m := matchFull(b.ctrl, fp); m != 0; m &= m - 1 {
			if b.keys[slotOf(m)] == key {
				return loads
			}
		}
		if hasEmpty(b.ctrl) {
			return loads
		}
		bi = (bi + step) & t.bmask
	}
}

// TestTombstoneDecayBoundsProbeLength is the delete-churn regression
// test: a population that grows dense and then shrinks by deletion must
// not leave probe chains behind. Without delete-side decay the
// tombstones of the dense phase survive (growth never triggers again),
// and absent-key probes crawl through them forever.
func TestTombstoneDecayBoundsProbeLength(t *testing.T) {
	m := NewU32Map(3000)
	ue := &UE{}
	for k := uint32(1); k <= 3000; k++ {
		m.Put(k, ue)
	}
	// Shrink to 100 live keys by deleting in an order that stresses full
	// buckets, then churn the survivors.
	for k := uint32(101); k <= 3000; k++ {
		m.Delete(k)
	}
	rng := rand.New(rand.NewSource(42))
	next := uint32(10_000)
	for i := 0; i < 50_000; i++ {
		del := uint32(rng.Intn(100) + 1)
		if v := m.Get(del); v != nil {
			m.Delete(del)
			m.Put(del, ue)
		}
		next++
		m.Put(next, ue)
		m.Delete(next)
	}
	g := &m.g
	if g.grave > g.n && g.grave*8 > g.slots() {
		t.Fatalf("decay did not run: grave=%d live=%d slots=%d", g.grave, g.n, g.slots())
	}
	// Probe length must stay flat for both hits and misses.
	maxProbe := 0
	m.Range(func(k uint32, _ *UE) bool {
		if p := probeBuckets32(g, k); p > maxProbe {
			maxProbe = p
		}
		return true
	})
	for i := 0; i < 1000; i++ {
		if p := probeBuckets32(g, uint32(1_000_000+i)); p > maxProbe {
			maxProbe = p
		}
	}
	if maxProbe > 8 {
		t.Fatalf("probe length degraded under churn: %d bucket loads", maxProbe)
	}
}

// sameHomeTEIDs returns the first n keys of FuzzIndexesModel's TEID
// domain (1..31) that share one home bucket in a table of
// u32MapMinCap slots — the size NewIndexes(2) starts at.
func sameHomeTEIDs(n int) []uint32 {
	byHome := map[uint64][]uint32{}
	for k := uint32(1); k <= 31; k++ {
		home := pkt.HashUint32(k) & (u32MapMinCap/bucketSlots - 1)
		if byHome[home] = append(byHome[home], k); len(byHome[home]) == n {
			return byHome[home]
		}
	}
	panic("no home bucket holds enough fuzz-domain keys")
}

// bucketSeeds are FuzzIndexesModel inputs over five keys with one home
// bucket: four fill it and the fifth overflows into a second bucket.
// The first then deletes inside the full bucket (a tombstone), looks up
// the overflowed key past it and re-inserts over the tombstone; the
// second deletes three of the four, and the third delete leaves more
// tombstones than live keys, which rehashes the table in place.
// TestBucketTombstoneLifecycle checks that these steps reach those states.
func bucketSeeds() [][]byte {
	const ins, del, fence, look = 0, 1, 2, 3 // the fuzz body's op codes
	k := sameHomeTEIDs(5)
	op := func(o byte, keys ...uint32) (b []byte) {
		for _, key := range keys {
			b = append(b, o, byte(key-1)) // the fuzz body maps a byte to key b%31+1
		}
		return b
	}
	cat := func(parts ...[]byte) (b []byte) {
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	fill := cat(op(ins, k...), op(look, k...))
	return [][]byte{
		cat(fill, op(del, k[1]), op(look, k[4], k[1]), op(ins, k[1]), op(look, k...)),
		cat(fill, op(del, k[0], k[1], k[2]), op(look, k...), op(fence, 1, 1), op(ins, k[0], k[1]), op(look, k...)),
	}
}

// TestBucketTombstoneLifecycle walks one home bucket through the states
// bucketSeeds feed the model check: overflow into a second bucket, a
// delete inside the full bucket leaving a tombstone that lookups probe
// past, a re-insert that reuses it, and the delete that leaves more
// tombstones than live keys and so rehashes the table in place.
func TestBucketTombstoneLifecycle(t *testing.T) {
	k := sameHomeTEIDs(5)
	ues := map[uint32]*UE{}
	m := NewU32Map(2)
	for _, key := range k {
		ues[key] = &UE{}
		m.Put(key, ues[key])
	}
	g := &m.g
	if g.slots() != u32MapMinCap {
		t.Fatalf("table grew to %d slots; the seeds assume %d", g.slots(), u32MapMinCap)
	}
	home := &g.b[pkt.HashUint32(k[0])&g.bmask]
	if hasEmpty(home.ctrl) {
		t.Fatalf("home bucket not full after 5 inserts: ctrl %#08x", home.ctrl)
	}
	if p := probeBuckets32(g, k[4]); p != 2 {
		t.Fatalf("fifth key found after %d bucket loads, want 2 (overflow)", p)
	}

	m.Delete(k[1])
	tombs := 0
	for s := 0; s < bucketSlots; s++ {
		if home.ctrlAt(s) == ctrlTomb {
			tombs++
		}
	}
	if g.grave != 1 || tombs != 1 {
		t.Fatalf("delete in a full bucket: grave=%d ctrl %#08x, want a tombstone", g.grave, home.ctrl)
	}
	if m.Get(k[4]) != ues[k[4]] || m.Get(k[1]) != nil {
		t.Fatal("lookups past the tombstone went wrong")
	}
	m.Put(k[1], ues[k[1]])
	if g.grave != 0 || g.n != 5 || probeBuckets32(g, k[1]) != 1 {
		t.Fatalf("re-insert: grave=%d n=%d, want the tombstone reused in the home bucket", g.grave, g.n)
	}

	m.Delete(k[0])
	m.Delete(k[1])
	if g.grave != 2 {
		t.Fatalf("grave = %d after two deletes in the full bucket, want 2", g.grave)
	}
	m.Delete(k[2]) // 3 tombstones > 2 live and > slots/8: decay
	if g.grave != 0 || g.n != 2 || g.slots() != u32MapMinCap {
		t.Fatalf("after decay: grave=%d n=%d slots=%d, want 0, 2, %d", g.grave, g.n, g.slots(), u32MapMinCap)
	}
	for i, key := range k {
		want := ues[key]
		if i < 3 {
			want = nil
		}
		if got := m.Get(key); got != want {
			t.Fatalf("key %d after decay: got %p, want %p", key, got, want)
		}
	}
}

// FuzzIndexesModel drives the data-path indexes through Apply against
// plain Go map models: interleaved inserts and deletes, with deleted
// contexts recycled into new users the way the control plane recycles
// them (UE.Recycle once the two-sync fence has passed). Single (GetUE)
// and batched (GetHotBatch) lookups must agree with the models in both
// key domains, and a deleted key must keep missing after its context was
// recycled into another user, whose counters start from zero.
func FuzzIndexesModel(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 1, 1, 2, 0, 2, 0, 0, 2, 3, 1, 3, 2})
	f.Add([]byte{0, 1, 0, 2, 3, 2, 3, 3, 1, 1, 2, 0, 0, 5, 2, 0, 0, 6, 3, 1, 3, 6})
	for _, seed := range bucketSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		ix := NewIndexes(2)
		byTEID := map[uint32]*UE{}
		byIP := map[uint32]*UE{}
		var ips []uint32 // every UE address ever inserted; never reused
		type retiree struct {
			ue       *UE
			teid, ip uint32
			seq      uint64
		}
		var free []retiree
		var syncSeq uint64
		for i := 0; i+1 < len(data); i += 2 {
			op, key := data[i]%4, uint32(data[i+1]%31+1)
			u := byTEID[key]
			switch op {
			case 0: // insert, reusing the oldest retiree once it cleared the fence
				if u != nil {
					break
				}
				var r retiree
				if len(free) > 0 && syncSeq >= free[0].seq+2 {
					r, free = free[0], free[1:]
					r.ue.Recycle()
					u = r.ue
					if u.Hot().Counters.UplinkPackets != 0 {
						t.Fatalf("recycled context kept its counters")
					}
				} else {
					u = &UE{}
				}
				ip := 0x0a000000 + uint32(len(ips)+1)
				ips = append(ips, ip)
				u.WriteCtrl(func(c *ControlState) { c.UplinkTEID, c.UEAddr = key, ip })
				ix.Apply(Update{Op: OpInsert, TEID: key, UEIP: ip, UE: u})
				byTEID[key], byIP[ip] = u, u
				if r.ue != nil {
					if byTEID[r.teid] == nil && ix.GetUE(r.teid, true) != nil {
						t.Fatalf("deleted TEID %d hits after its context was recycled", r.teid)
					}
					if ix.GetUE(r.ip, false) != nil {
						t.Fatalf("deleted address %#x hits after its context was recycled", r.ip)
					}
				}
			case 1: // delete and retire
				if u == nil {
					break
				}
				ip := u.Ctrl.UEAddr
				ix.Apply(Update{Op: OpDelete, TEID: key, UEIP: ip})
				delete(byTEID, key)
				delete(byIP, ip)
				free = append(free, retiree{ue: u, teid: key, ip: ip, seq: syncSeq})
			case 2: // advance the data-plane sync fence
				syncSeq++
			default: // single lookups; a hit counts a packet like the data plane
				if got := ix.GetUE(key, true); got != u {
					t.Fatalf("GetUE(TEID %d) = %p, want %p", key, got, u)
				}
				if u != nil {
					if got := ix.GetUE(u.Ctrl.UEAddr, false); got != u {
						t.Fatalf("GetUE(address %#x) = %p, want %p", u.Ctrl.UEAddr, got, u)
					}
					u.WriteCounters(func(c *CounterState) { c.UplinkPackets++ })
				}
			}
		}
		// Batched lookups agree with the models over the whole TEID space
		// and every address ever used.
		teids := make([]uint32, 31)
		for i := range teids {
			teids[i] = uint32(i + 1)
		}
		for _, dom := range []struct {
			keys   []uint32
			model  map[uint32]*UE
			uplink bool
		}{{teids, byTEID, true}, {ips, byIP, false}} {
			out := make([]*HotUE, len(dom.keys))
			ix.GetHotBatch(dom.keys, dom.uplink, out)
			for i, k := range dom.keys {
				want := dom.model[k]
				if want == nil {
					if out[i] != nil {
						t.Fatalf("batch lookup(%#x, uplink=%v): stale hit", k, dom.uplink)
					}
				} else if out[i] != want.Hot() || out[i].U != want {
					t.Fatalf("batch lookup(%#x, uplink=%v): wrong context", k, dom.uplink)
				}
			}
		}
	})
}

// Zero-allocation guards: the per-packet paths must not allocate. These
// back the CI allocation-guard step (scripts/ci.sh).

func TestGetHotBatchZeroAlloc(t *testing.T) {
	m := NewU32Map(1024)
	for i := uint32(1); i <= 1024; i++ {
		m.Put(i, &UE{})
	}
	keys := make([]uint32, 64)
	for i := range keys {
		keys[i] = uint32(i + 1)
	}
	out := make([]*HotUE, 64)
	if n := testing.AllocsPerRun(100, func() { m.GetHotBatch(keys, true, out) }); n != 0 {
		t.Fatalf("U32Map.GetHotBatch allocates %.1f/op", n)
	}
}

func TestLookupHotBatchZeroAlloc(t *testing.T) {
	// The subtest is named for the pointer state layout, the only one.
	t.Run("pointer", func(t *testing.T) {
		ix := NewIndexes(1024)
		for i := uint32(1); i <= 256; i++ {
			ix.Apply(Update{Op: OpInsert, TEID: i, UEIP: 0x0a000000 + i, UE: &UE{}})
		}
		keys := make([]uint32, 64)
		for i := range keys {
			keys[i] = 0x0a000000 + uint32(i+1)
		}
		out := make([]*HotUE, 64)
		if n := testing.AllocsPerRun(100, func() {
			ix.GetHotBatch(keys, false, out)
		}); n != 0 {
			t.Fatalf("Indexes.GetHotBatch allocates %.1f/op", n)
		}
	})
}

// BenchmarkGetBatch measures the two-pass batched probe against the
// one-at-a-time path at a population where the table no longer fits in
// L2 (the case pipelining exists for).
func BenchmarkGetBatch(b *testing.B) {
	const size = 1 << 20
	m := NewU32Map(size)
	for i := uint32(1); i <= size; i++ {
		m.Put(i, &UE{})
	}
	keys := make([]uint32, 256)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = uint32(rng.Intn(size) + 1)
	}
	out := make([]*HotUE, len(keys))
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.GetHotBatch(keys, true, out)
		}
	})
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, k := range keys {
				if ue := m.Get(k); ue != nil {
					out[j] = ue.Hot()
				}
			}
		}
	})
}
