package state

// U32Map is a hash table from uint32 keys (TEIDs, IPv4 addresses) to
// *UE, tuned for the data path: no allocation on lookup, fingerprinted
// bucket probing (see group.go) so a probe usually costs one cache line
// — the bucket's control word, keys and values share it — plus one key
// compare, and a load factor capped at 3/4. Key 0 is reserved (never a
// valid TEID or UE address in this system); every other key, the
// all-ones one included, is an ordinary key.
//
// A U32Map is not internally synchronized: in PEPC each thread owns its
// own index map (Listing 1's dp_state / cp_state) and cross-thread changes
// arrive through the update queue. The giant-lock baseline wraps one map
// in a table-level lock instead.
type U32Map struct {
	g table32
	// sink keeps GetHotBatch's touch loads live; never read.
	sink uint32
}

// u32MapMinCap is the smallest slot count of either map (4 buckets).
const u32MapMinCap = 16

// NewU32Map returns a map pre-sized for sizeHint entries.
func NewU32Map(sizeHint int) *U32Map {
	m := &U32Map{}
	m.g.init(sizeHint)
	return m
}

// Len returns the number of live entries.
func (m *U32Map) Len() int { return m.g.n }

// Cap returns the current slot count (diagnostics; tracks table size for
// the cache-behaviour experiments).
func (m *U32Map) Cap() int { return m.g.slots() }

// Get returns the value for key, or nil.
func (m *U32Map) Get(key uint32) *UE {
	if key == 0 {
		return nil
	}
	return m.g.get(key)
}

// GetHotBatch resolves keys[i] into the users' hot halves (nil on
// miss). The batch is processed in two passes per chunk — hash and
// home-bucket control word for every key first, then the probes — so
// the bucket loads are software-pipelined instead of serializing behind
// each probe's cache miss, and the second pass finds each bucket's keys
// and values in cache beside its control word; each hit's hot lines for
// a run in the given direction are then loaded for the whole chunk at
// once (HotUE.touch), so those misses overlap too instead of stalling
// the verdict stage that reads and writes them next one user at a time.
func (m *U32Map) GetHotBatch(keys []uint32, uplink bool, out []*HotUE) {
	if len(keys) == 0 {
		return
	}
	_ = out[len(keys)-1]
	var ues [batchChunk]*UE
	var sink uint32
	for len(keys) > 0 {
		c := len(keys)
		if c > batchChunk {
			c = batchChunk
		}
		m.g.getChunk(keys[:c], ues[:c])
		for i, ue := range ues[:c] {
			if ue != nil {
				h := ue.Hot()
				sink += h.touch(uplink)
				out[i] = h
			} else {
				out[i] = nil
			}
		}
		keys, out = keys[c:], out[c:]
	}
	m.sink = sink
}

// Put inserts or replaces the value for key. Returns false for key 0
// and a nil value.
func (m *U32Map) Put(key uint32, v *UE) bool {
	if key == 0 || v == nil {
		return false
	}
	m.g.put(key, v)
	return true
}

// Delete removes key, returning the previous value.
func (m *U32Map) Delete(key uint32) *UE {
	if key == 0 {
		return nil
	}
	return m.g.del(key)
}

// Range calls fn for each entry until fn returns false.
func (m *U32Map) Range(fn func(key uint32, v *UE) bool) { m.g.rng(fn) }

// U64Map is the 64-bit-keyed variant for IMSI/GUTI indexes on the control
// path, on the same bucket code (a bucket of 8-byte keys is 72 B). Key 0
// is reserved.
type U64Map struct {
	g table64
}

// NewU64Map returns a map pre-sized for sizeHint entries.
func NewU64Map(sizeHint int) *U64Map {
	m := &U64Map{}
	m.g.init(sizeHint)
	return m
}

// Len returns the number of live entries.
func (m *U64Map) Len() int { return m.g.n }

// Cap returns the current slot count.
func (m *U64Map) Cap() int { return m.g.slots() }

// Get returns the value for key, or nil.
func (m *U64Map) Get(key uint64) *UE {
	if key == 0 {
		return nil
	}
	return m.g.get(key)
}

// Put inserts or replaces the value for key. Returns false for key 0
// and a nil value.
func (m *U64Map) Put(key uint64, v *UE) bool {
	if key == 0 || v == nil {
		return false
	}
	m.g.put(key, v)
	return true
}

// Delete removes key, returning the previous value.
func (m *U64Map) Delete(key uint64) *UE {
	if key == 0 {
		return nil
	}
	return m.g.del(key)
}

// Range calls fn for each entry until fn returns false.
func (m *U64Map) Range(fn func(key uint64, v *UE) bool) { m.g.rng(fn) }
