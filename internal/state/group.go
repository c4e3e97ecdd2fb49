package state

// Group-probing hash core (swiss-table style) shared by the per-domain
// indexes. Slots are organized into groups of 8; a parallel control-byte
// array carries a 7-bit hash fingerprint per full slot, so one 8-byte
// load answers "which of these 8 slots could hold my key" and the
// key/value arrays are only touched on a fingerprint hit. Groups are
// visited in triangular order (step 1, 2, 3, ... from the home group),
// which over a power-of-two group count covers every group exactly once
// — probes terminate at the first group containing an empty slot.
//
// Control byte encoding: 0x00 empty, 0x01 tombstone, 0x80|fp7 full.
// The fingerprint is taken from the top bits of the hash while the home
// group comes from the bottom bits, so colliding keys in one group
// still tend to have distinct fingerprints.
//
// Like the previous linear-probe implementation, the core is not
// internally synchronized: each PEPC thread owns its own index and
// cross-thread changes arrive through the update queue.

import (
	"encoding/binary"
	"math/bits"

	"pepc/internal/pkt"
)

const (
	groupSlots = 8 // slots per group; one control word per group

	ctrlEmpty = 0x00
	ctrlTomb  = 0x01
	ctrlFull  = 0x80 // OR'd with the 7-bit fingerprint

	swarLSB = 0x0101010101010101
	swarMSB = 0x8080808080808080
)

// fpOf derives the control byte for a full slot from the hash's top
// seven bits (the group index consumes the bottom bits).
func fpOf(h uint64) byte { return byte(h>>57) | ctrlFull }

// matchFull returns a bitmask with the high bit of every byte position
// whose control byte *may* equal ctrl (the classic SWAR equal-byte
// trick). False positives are possible when a borrow crosses byte
// boundaries; callers always confirm with a key compare, and deleted
// slots have their keys zeroed, so a false positive can never alias a
// live key.
func matchFull(w uint64, ctrl byte) uint64 {
	x := w ^ (swarLSB * uint64(ctrl))
	return (x - swarLSB) &^ x & swarMSB
}

// hasEmpty reports whether the group holds at least one empty slot. As
// a boolean this is exact: a borrow chain in the subtraction starts
// only at a genuinely zero byte.
func hasEmpty(w uint64) bool {
	return (w-swarLSB)&^w&swarMSB != 0
}

// matchFree returns a bitmask of insertable slots (empty or tombstone:
// any byte with the full bit clear). Exact.
func matchFree(w uint64) uint64 { return ^w & swarMSB }

// batchChunk is the software-pipelining width of GetHotBatch: hashes and
// home-group control words for a chunk are computed before any probe
// resolves, so the group loads overlap instead of serializing.
const batchChunk = 32

// groupCore is the key-type-independent part of the table. The generic
// wrappers below (g32/g64) add typed key/value arrays; splitting this
// way keeps the layout decisions (growth, compaction thresholds) in one
// place.
//
// Growth keeps (live + tombstones) at or below 3/4 of capacity, as
// before. Tombstone decay is handled on the delete side too: when
// tombstones outnumber both the live population and 1/8 of capacity,
// the table is rehashed in place, so a delete-heavy workload that never
// inserts enough to trigger growth cannot degrade probes into long
// chains (amortized O(1): each rehash is paid for by capacity/8
// deletes).
type groupCore struct {
	ctrl  []byte
	gmask uint64 // group count - 1
	n     int
	grave int
}

func (g *groupCore) slots() int { return len(g.ctrl) }

// word loads the control word of group gi.
func (g *groupCore) word(gi uint64) uint64 {
	return binary.LittleEndian.Uint64(g.ctrl[gi*groupSlots:])
}

func (g *groupCore) initSlots(sizeHint int) {
	capacity := u32MapMinCap
	for capacity*3/4 < sizeHint {
		capacity <<= 1
	}
	g.ctrl = make([]byte, capacity)
	g.gmask = uint64(capacity/groupSlots - 1)
	g.n = 0
	g.grave = 0
}

// needGrow reports whether one more insert would push live+tombstones
// past the 3/4 load bound.
func (g *groupCore) needGrow() bool {
	return (g.n+g.grave+1)*4 >= g.slots()*3
}

// growTarget picks the rehash size: double for genuine growth, same
// size when the pressure is tombstones.
func (g *groupCore) growTarget() int {
	newCap := g.slots()
	if g.n*2 >= newCap {
		newCap <<= 1
	}
	return newCap
}

// needDecay reports whether a delete-side in-place compaction is due.
func (g *groupCore) needDecay() bool {
	return g.grave > g.n && g.grave*8 > g.slots()
}

// g32 is the group-probing table for uint32 keys. Key 0 must be
// rejected by the wrapper: deletion zeroes the key slot, and the
// SWAR fingerprint match relies on dead slots never comparing equal to
// a probed key.
type g32[V any] struct {
	groupCore
	keys []uint32
	vals []V
}

func newG32[V any](sizeHint int) *g32[V] {
	g := &g32[V]{}
	g.initSlots(sizeHint)
	g.keys = make([]uint32, g.slots())
	g.vals = make([]V, g.slots())
	return g
}

func (g *g32[V]) get(key uint32) (V, bool) {
	h := pkt.HashUint32(key)
	return g.getHinted(key, h, g.word(h&g.gmask))
}

// getHinted finishes a probe whose hash and home-group control word
// were computed ahead of time (the two-pass GetHotBatch).
func (g *g32[V]) getHinted(key uint32, h, w uint64) (V, bool) {
	fp := fpOf(h)
	gi := h & g.gmask
	for step := uint64(1); ; step++ {
		for m := matchFull(w, fp); m != 0; m &= m - 1 {
			s := gi*groupSlots + uint64(bits.TrailingZeros64(m))/groupSlots
			if g.keys[s] == key {
				return g.vals[s], true
			}
		}
		if hasEmpty(w) {
			var zero V
			return zero, false
		}
		gi = (gi + step) & g.gmask
		w = g.word(gi)
	}
}

// getChunk is one software-pipelined GetHotBatch pass: hash + home-group
// control word for every key first, then resolve the probes.
func (g *g32[V]) getChunk(keys []uint32, out []V) {
	var hs [batchChunk]uint64
	var ws [batchChunk]uint64
	for i, k := range keys {
		h := pkt.HashUint32(k)
		hs[i] = h
		ws[i] = g.word(h & g.gmask)
	}
	for i, k := range keys {
		if k == 0 || k == tombstone {
			var zero V
			out[i] = zero
			continue
		}
		out[i], _ = g.getHinted(k, hs[i], ws[i])
	}
}

func (g *g32[V]) put(key uint32, v V) {
	if g.needGrow() {
		g.rehash(g.growTarget())
	}
	h := pkt.HashUint32(key)
	fp := fpOf(h)
	gi := h & g.gmask
	free := -1
	for step := uint64(1); ; step++ {
		w := g.word(gi)
		for m := matchFull(w, fp); m != 0; m &= m - 1 {
			s := gi*groupSlots + uint64(bits.TrailingZeros64(m))/groupSlots
			if g.keys[s] == key {
				g.vals[s] = v
				return
			}
		}
		if free < 0 {
			if f := matchFree(w); f != 0 {
				free = int(gi)*groupSlots + bits.TrailingZeros64(f)/groupSlots
			}
		}
		if hasEmpty(w) {
			if g.ctrl[free] == ctrlTomb {
				g.grave--
			}
			g.ctrl[free] = fp
			g.keys[free] = key
			g.vals[free] = v
			g.n++
			return
		}
		gi = (gi + step) & g.gmask
	}
}

func (g *g32[V]) del(key uint32) (V, bool) {
	var zero V
	h := pkt.HashUint32(key)
	fp := fpOf(h)
	gi := h & g.gmask
	for step := uint64(1); ; step++ {
		w := g.word(gi)
		for m := matchFull(w, fp); m != 0; m &= m - 1 {
			s := gi*groupSlots + uint64(bits.TrailingZeros64(m))/groupSlots
			if g.keys[s] == key {
				v := g.vals[s]
				g.keys[s] = 0
				g.vals[s] = zero
				g.n--
				// If this group still has an empty slot, no probe for any
				// other key can pass through it, so the slot can revert to
				// empty instead of a tombstone. (A group that was ever
				// completely full never regains an empty byte, which is
				// what makes this safe.)
				if hasEmpty(w) {
					g.ctrl[s] = ctrlEmpty
				} else {
					g.ctrl[s] = ctrlTomb
					g.grave++
					if g.needDecay() {
						g.rehash(g.slots())
					}
				}
				return v, true
			}
		}
		if hasEmpty(w) {
			return zero, false
		}
		gi = (gi + step) & g.gmask
	}
}

func (g *g32[V]) rehash(newSlots int) {
	oldCtrl, oldKeys, oldVals := g.ctrl, g.keys, g.vals
	g.ctrl = make([]byte, newSlots)
	g.gmask = uint64(newSlots/groupSlots - 1)
	g.keys = make([]uint32, newSlots)
	g.vals = make([]V, newSlots)
	g.n = 0
	g.grave = 0
	for i, c := range oldCtrl {
		if c&ctrlFull != 0 {
			g.put(oldKeys[i], oldVals[i])
		}
	}
}

func (g *g32[V]) rng(fn func(key uint32, v V) bool) {
	for i, c := range g.ctrl {
		if c&ctrlFull != 0 {
			if !fn(g.keys[i], g.vals[i]) {
				return
			}
		}
	}
}

// g64 mirrors g32 for uint64 keys (IMSI/GUTI indexes).
type g64[V any] struct {
	groupCore
	keys []uint64
	vals []V
}

func newG64[V any](sizeHint int) *g64[V] {
	g := &g64[V]{}
	g.initSlots(sizeHint)
	g.keys = make([]uint64, g.slots())
	g.vals = make([]V, g.slots())
	return g
}

func (g *g64[V]) get(key uint64) (V, bool) {
	h := pkt.HashUint64(key)
	return g.getHinted(key, h, g.word(h&g.gmask))
}

func (g *g64[V]) getHinted(key, h, w uint64) (V, bool) {
	fp := fpOf(h)
	gi := h & g.gmask
	for step := uint64(1); ; step++ {
		for m := matchFull(w, fp); m != 0; m &= m - 1 {
			s := gi*groupSlots + uint64(bits.TrailingZeros64(m))/groupSlots
			if g.keys[s] == key {
				return g.vals[s], true
			}
		}
		if hasEmpty(w) {
			var zero V
			return zero, false
		}
		gi = (gi + step) & g.gmask
		w = g.word(gi)
	}
}

func (g *g64[V]) put(key uint64, v V) {
	if g.needGrow() {
		g.rehash(g.growTarget())
	}
	h := pkt.HashUint64(key)
	fp := fpOf(h)
	gi := h & g.gmask
	free := -1
	for step := uint64(1); ; step++ {
		w := g.word(gi)
		for m := matchFull(w, fp); m != 0; m &= m - 1 {
			s := gi*groupSlots + uint64(bits.TrailingZeros64(m))/groupSlots
			if g.keys[s] == key {
				g.vals[s] = v
				return
			}
		}
		if free < 0 {
			if f := matchFree(w); f != 0 {
				free = int(gi)*groupSlots + bits.TrailingZeros64(f)/groupSlots
			}
		}
		if hasEmpty(w) {
			if g.ctrl[free] == ctrlTomb {
				g.grave--
			}
			g.ctrl[free] = fp
			g.keys[free] = key
			g.vals[free] = v
			g.n++
			return
		}
		gi = (gi + step) & g.gmask
	}
}

func (g *g64[V]) del(key uint64) (V, bool) {
	var zero V
	h := pkt.HashUint64(key)
	fp := fpOf(h)
	gi := h & g.gmask
	for step := uint64(1); ; step++ {
		w := g.word(gi)
		for m := matchFull(w, fp); m != 0; m &= m - 1 {
			s := gi*groupSlots + uint64(bits.TrailingZeros64(m))/groupSlots
			if g.keys[s] == key {
				v := g.vals[s]
				g.keys[s] = 0
				g.vals[s] = zero
				g.n--
				if hasEmpty(w) {
					g.ctrl[s] = ctrlEmpty
				} else {
					g.ctrl[s] = ctrlTomb
					g.grave++
					if g.needDecay() {
						g.rehash(g.slots())
					}
				}
				return v, true
			}
		}
		if hasEmpty(w) {
			return zero, false
		}
		gi = (gi + step) & g.gmask
	}
}

func (g *g64[V]) rehash(newSlots int) {
	oldCtrl, oldKeys, oldVals := g.ctrl, g.keys, g.vals
	g.ctrl = make([]byte, newSlots)
	g.gmask = uint64(newSlots/groupSlots - 1)
	g.keys = make([]uint64, newSlots)
	g.vals = make([]V, newSlots)
	g.n = 0
	g.grave = 0
	for i, c := range oldCtrl {
		if c&ctrlFull != 0 {
			g.put(oldKeys[i], oldVals[i])
		}
	}
}

func (g *g64[V]) rng(fn func(key uint64, v V) bool) {
	for i, c := range g.ctrl {
		if c&ctrlFull != 0 {
			if !fn(g.keys[i], g.vals[i]) {
				return
			}
		}
	}
}
