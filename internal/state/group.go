package state

// Bucketed hash core (swiss-table style) shared by the per-domain
// indexes. A table is a power-of-two array of buckets, and a bucket is
// the whole probe unit: a 4-byte control word with one byte per slot,
// then its 4 keys, then its 4 values. For 32-bit keys a bucket is
// exactly one 64-byte cache line (TestBucketLayout), so the load of a
// bucket's control word — which answers "which of these 4 slots could
// hold my key" by SWAR-matching a 7-bit hash fingerprint per slot —
// brings the keys and the *UE pointers into cache with it: a probe that
// resolves in its home bucket touches one line. Buckets are visited in
// triangular order (step 1, 2, 3, ... from the home bucket), which over
// a power-of-two bucket count covers every bucket exactly once — probes
// terminate at the first bucket containing an empty slot.
//
// Control byte encoding: 0x00 empty, 0x01 tombstone, 0x80|fp7 full.
// The fingerprint is taken from the top bits of the hash while the home
// bucket comes from the bottom bits, so colliding keys in one bucket
// still tend to have distinct fingerprints.
//
// Key 0 is the only reserved key: deletion zeroes the key slot, and the
// SWAR fingerprint match relies on dead slots never comparing equal to
// a probed key.
//
// The core is not internally synchronized: each PEPC thread owns its
// own index and cross-thread changes arrive through the update queue.

import (
	"math/bits"

	"pepc/internal/pkt"
)

const (
	bucketSlots = 4 // slots per bucket; one control byte each

	ctrlEmpty = 0x00
	ctrlTomb  = 0x01
	ctrlFull  = 0x80 // OR'd with the 7-bit fingerprint

	swarLSB = 0x01010101
	swarMSB = 0x80808080
)

// fpOf derives the control byte for a full slot from the hash's top
// seven bits (the bucket index consumes the bottom bits).
func fpOf(h uint64) byte { return byte(h>>57) | ctrlFull }

// matchFull returns a bitmask with the high bit of every byte position
// whose control byte *may* equal ctrl (the classic SWAR equal-byte
// trick). False positives are possible when a borrow crosses byte
// boundaries; callers always confirm with a key compare, and deleted
// slots have their keys zeroed, so a false positive can never alias a
// live key.
func matchFull(w uint32, ctrl byte) uint32 {
	x := w ^ (swarLSB * uint32(ctrl))
	return (x - swarLSB) &^ x & swarMSB
}

// hasEmpty reports whether the bucket holds at least one empty slot. As
// a boolean this is exact: a borrow chain in the subtraction starts
// only at a genuinely zero byte.
func hasEmpty(w uint32) bool {
	return (w-swarLSB)&^w&swarMSB != 0
}

// matchFree returns a bitmask of insertable slots (empty or tombstone:
// any byte with the full bit clear). Exact.
func matchFree(w uint32) uint32 { return ^w & swarMSB }

// slotOf turns the lowest set bit of a match mask into its slot index.
func slotOf(m uint32) int { return bits.TrailingZeros32(m) >> 3 & (bucketSlots - 1) }

// batchChunk is the software-pipelining width of GetHotBatch: hashes and
// home-bucket control words for a chunk are loaded before any probe
// resolves, so the bucket misses overlap instead of serializing.
const batchChunk = 32

// key is the set of index key types: TEIDs and IPv4 addresses on the
// data path, IMSIs on the control path.
type key interface{ uint32 | uint64 }

// bucket is one probe unit: 4 slots' control bytes, keys and values.
// pad sits between the control word and the keys and fills a
// uint32-keyed bucket out to a whole cache line: 4 B of control and
// 12 B of pad, 16 B of keys, 32 B of values. A uint64-keyed bucket
// needs none (4 B of control, 4 B of alignment, 32 B of keys, 32 B of
// values): 72 B, so a control-path probe touches at most two lines.
type bucket[K key, pad any] struct {
	ctrl uint32
	_    pad
	keys [bucketSlots]K
	vals [bucketSlots]*UE
}

// ctrlAt returns slot s's control byte.
func (b *bucket[K, pad]) ctrlAt(s int) byte { return byte(b.ctrl >> (8 * s)) }

// setCtrl sets slot s's control byte.
func (b *bucket[K, pad]) setCtrl(s int, c byte) {
	b.ctrl = b.ctrl&^(0xff<<(8*s)) | uint32(c)<<(8*s)
}

// table32 is the data-path instantiation (TEID and UE-address indexes);
// table64 is the control path's (IMSI).
type (
	table32 = table[uint32, [3]uint32]
	table64 = table[uint64, struct{}]
)

// table is the bucketed hash table behind U32Map and U64Map.
//
// Growth keeps (live + tombstones) at or below 3/4 of capacity.
// Tombstone decay is handled on the delete side too: when tombstones
// outnumber both the live population and 1/8 of capacity, the table is
// rehashed in place, so a delete-heavy workload that never inserts
// enough to trigger growth cannot degrade probes into long chains
// (amortized O(1): each rehash is paid for by capacity/8 deletes).
type table[K key, pad any] struct {
	b     []bucket[K, pad]
	bmask uint64 // bucket count - 1
	n     int    // live entries
	grave int    // tombstones
}

// hashOf hashes a key of either width; pkt.HashUint32(k) is the same
// function of uint64(k).
func hashOf[K key](k K) uint64 { return pkt.HashUint64(uint64(k)) }

// init sizes the table for sizeHint entries within the 3/4 load bound.
func (t *table[K, pad]) init(sizeHint int) {
	capacity := u32MapMinCap
	for capacity*3/4 < sizeHint {
		capacity <<= 1
	}
	t.alloc(capacity)
}

// alloc replaces the bucket array with an empty one of the given slot
// count. An array of 32 KiB or more (every index sized for 1K users or
// more) is a large object, which the Go allocator places at the start
// of its own pages, so every bucket of a uint32 table starts on a line
// boundary. A smaller pointer-holding array carries the allocator's
// 8-byte header in front of it; such a table fits in L1 or L2, where a
// bucket split over two lines costs no extra miss.
func (t *table[K, pad]) alloc(slots int) {
	t.b = make([]bucket[K, pad], slots/bucketSlots)
	t.bmask = uint64(len(t.b) - 1)
	t.n = 0
	t.grave = 0
}

func (t *table[K, pad]) slots() int { return len(t.b) * bucketSlots }

// needGrow reports whether one more insert would push live+tombstones
// past the 3/4 load bound.
func (t *table[K, pad]) needGrow() bool {
	return (t.n+t.grave+1)*4 >= t.slots()*3
}

// growTarget picks the rehash size: double for genuine growth, same
// size when the pressure is tombstones.
func (t *table[K, pad]) growTarget() int {
	newCap := t.slots()
	if t.n*2 >= newCap {
		newCap <<= 1
	}
	return newCap
}

// needDecay reports whether a delete-side in-place compaction is due.
func (t *table[K, pad]) needDecay() bool {
	return t.grave > t.n && t.grave*8 > t.slots()
}

// find returns k's value among b's slots whose fingerprint matches fp
// in w (b's control word, loaded earlier), or nil. Small enough to
// inline, so a key resolved in its home bucket costs no call.
func (b *bucket[K, pad]) find(k K, w uint32, fp byte) *UE {
	for m := matchFull(w, fp); m != 0; m &= m - 1 {
		if s := slotOf(m); b.keys[s] == k {
			return b.vals[s]
		}
	}
	return nil
}

// get returns the value for k, or nil.
func (t *table[K, pad]) get(k K) *UE {
	h := hashOf(k)
	b := &t.b[h&t.bmask]
	w := b.ctrl
	if v := b.find(k, w, fpOf(h)); v != nil || hasEmpty(w) {
		return v
	}
	return t.getOverflow(k, h)
}

// getOverflow continues a lookup past a full home bucket, visiting the
// next buckets in triangular order.
func (t *table[K, pad]) getOverflow(k K, h uint64) *UE {
	fp := fpOf(h)
	bi := h & t.bmask
	for step := uint64(1); ; step++ {
		bi = (bi + step) & t.bmask
		b := &t.b[bi]
		w := b.ctrl
		if v := b.find(k, w, fp); v != nil || hasEmpty(w) {
			return v
		}
	}
}

// getChunk is one software-pipelined GetHotBatch pass: hash and
// home-bucket control word for every key first — each of those loads
// brings in the bucket's whole line — then resolve the probes from
// cache. Key 0 matches only dead slots, whose values are nil, and is
// never probed past its home bucket.
func (t *table[K, pad]) getChunk(keys []K, out []*UE) {
	var hs [batchChunk]uint64
	var ws [batchChunk]uint32
	for i, k := range keys {
		h := hashOf(k)
		hs[i] = h
		ws[i] = t.b[h&t.bmask].ctrl
	}
	for i, k := range keys {
		h, w := hs[i], ws[i]
		v := t.b[h&t.bmask].find(k, w, fpOf(h))
		if v == nil && !hasEmpty(w) && k != 0 {
			v = t.getOverflow(k, h)
		}
		out[i] = v
	}
}

// put inserts or replaces the value for k (nonzero).
func (t *table[K, pad]) put(k K, v *UE) {
	if t.needGrow() {
		t.rehash(t.growTarget())
	}
	h := hashOf(k)
	fp := fpOf(h)
	bi := h & t.bmask
	var free *bucket[K, pad]
	fs := 0
	for step := uint64(1); ; step++ {
		b := &t.b[bi]
		w := b.ctrl
		for m := matchFull(w, fp); m != 0; m &= m - 1 {
			if s := slotOf(m); b.keys[s] == k {
				b.vals[s] = v
				return
			}
		}
		if free == nil {
			if f := matchFree(w); f != 0 {
				free, fs = b, slotOf(f)
			}
		}
		if hasEmpty(w) {
			if free.ctrlAt(fs) == ctrlTomb {
				t.grave--
			}
			free.setCtrl(fs, fp)
			free.keys[fs] = k
			free.vals[fs] = v
			t.n++
			return
		}
		bi = (bi + step) & t.bmask
	}
}

// del removes k, returning its value (nil if absent).
func (t *table[K, pad]) del(k K) *UE {
	h := hashOf(k)
	fp := fpOf(h)
	bi := h & t.bmask
	for step := uint64(1); ; step++ {
		b := &t.b[bi]
		w := b.ctrl
		for m := matchFull(w, fp); m != 0; m &= m - 1 {
			s := slotOf(m)
			if b.keys[s] != k {
				continue
			}
			v := b.vals[s]
			b.keys[s] = 0
			b.vals[s] = nil
			t.n--
			// If this bucket still has an empty slot, no probe for any
			// other key can pass through it, so the slot can revert to
			// empty instead of a tombstone. (A bucket that was ever
			// completely full never regains an empty byte, which is what
			// makes this safe.)
			if hasEmpty(w) {
				b.setCtrl(s, ctrlEmpty)
			} else {
				b.setCtrl(s, ctrlTomb)
				t.grave++
				if t.needDecay() {
					t.rehash(t.slots())
				}
			}
			return v
		}
		if hasEmpty(w) {
			return nil
		}
		bi = (bi + step) & t.bmask
	}
}

// rehash rebuilds the table at newSlots, dropping every tombstone.
func (t *table[K, pad]) rehash(newSlots int) {
	old := t.b
	t.alloc(newSlots)
	for i := range old {
		b := &old[i]
		for m := b.ctrl & swarMSB; m != 0; m &= m - 1 {
			s := slotOf(m)
			t.put(b.keys[s], b.vals[s])
		}
	}
}

// rng calls fn for each entry until fn returns false.
func (t *table[K, pad]) rng(fn func(k K, v *UE) bool) {
	for i := range t.b {
		b := &t.b[i]
		for m := b.ctrl & swarMSB; m != 0; m &= m - 1 {
			s := slotOf(m)
			if !fn(b.keys[s], b.vals[s]) {
				return
			}
		}
	}
}
