package state

import (
	"sync"
	"sync/atomic"
)

// TwoLevel is PEPC's two-level state storage (§3.2, §4.2, Figure 14): a
// small primary table holding state for active devices, backed by a
// secondary table holding all devices. Both levels keep per-domain
// indexes (uplink TEID and UE address), like the flat Indexes, so a
// lookup probes a table containing only its own key type.
//
// The data thread reads the primary without any table-level locking (it
// is the primary's only reader, and structural changes arrive from the
// control thread through the slice's update queue — see core); the
// secondary is shared and protected by a short read/write lock.
//
// The performance effect is cache residency: a primary sized for the
// active population stays hot even when the total population is millions.
type TwoLevel struct {
	// primary is owned by the data thread; the control thread changes it
	// only through the update queue (DrainTwoLevel) or direct calls in
	// single-threaded setups.
	primary *Indexes

	secMu     sync.RWMutex
	secondary *Indexes

	// misses counts primary misses served from the secondary; the control
	// plane uses it to size the primary. Atomic: the data thread bumps it
	// on its lookup path while the control plane reads it concurrently.
	misses atomic.Uint64
}

// NewTwoLevel returns a two-level store sized for primaryHint active and
// totalHint overall devices.
func NewTwoLevel(primaryHint, totalHint int) *TwoLevel {
	return &TwoLevel{
		primary:   NewIndexes(primaryHint),
		secondary: NewIndexes(totalHint),
	}
}

// Lookup finds a user by key in the given domain (uplink=TEID,
// downlink=UE address). It returns the user and whether it came from the
// secondary table — in which case the caller should ask the control
// thread to promote it. Data-thread only.
func (t *TwoLevel) Lookup(key uint32, uplink bool) (ue *UE, fromSecondary bool) {
	ue = t.primary.GetUE(key, uplink)
	if ue != nil {
		return ue, false
	}
	t.secMu.RLock()
	ue = t.secondary.GetUE(key, uplink)
	t.secMu.RUnlock()
	if ue != nil {
		t.misses.Add(1)
	}
	return ue, ue != nil
}

// LookupHotBatch is the data plane's batch lookup: keys[i] resolve to
// hot halves out[i] (nil on miss), secondary-served entries flagged in
// fromSecondary. The primary probe uses the software-pipelined batch
// path (GetHotBatch); secondary fallbacks share one read-lock
// acquisition. Zero allocations.
func (t *TwoLevel) LookupHotBatch(keys []uint32, uplink bool, out []*HotUE, fromSecondary []bool) {
	if len(keys) == 0 {
		return
	}
	_ = out[len(keys)-1]
	_ = fromSecondary[len(keys)-1]
	t.primary.GetHotBatch(keys, uplink, out)
	missed := 0
	for i := range keys {
		fromSecondary[i] = false
		if out[i] == nil {
			missed++
		}
	}
	if missed == 0 {
		return
	}
	served := uint64(0)
	t.secMu.RLock()
	for i, k := range keys {
		if out[i] != nil {
			continue
		}
		if ue := t.secondary.GetUE(k, uplink); ue != nil {
			out[i] = ue.Hot()
			fromSecondary[i] = true
			served++
		}
	}
	t.secMu.RUnlock()
	if served != 0 {
		t.misses.Add(served)
	}
}

// LookupPrimaryOnly performs a primary-table uplink lookup without
// secondary fallback; used to measure the primary's residency benefit in
// isolation and by tests.
func (t *TwoLevel) LookupPrimaryOnly(teid uint32) *UE {
	return t.primary.GetUE(teid, true)
}

// Misses returns the number of secondary-served lookups so far.
func (t *TwoLevel) Misses() uint64 { return t.misses.Load() }

// PrimaryLen returns the primary-table population (uplink index).
func (t *TwoLevel) PrimaryLen() int { return t.primary.ByTEID.Len() }

// SecondaryLen returns the secondary-table population (uplink index).
func (t *TwoLevel) SecondaryLen() int {
	t.secMu.RLock()
	n := t.secondary.ByTEID.Len()
	t.secMu.RUnlock()
	return n
}

// InsertSecondary registers a device in the secondary (all-devices)
// table under both its keys (0 skips a domain). Control thread.
func (t *TwoLevel) InsertSecondary(teid, ip uint32, ue *UE) {
	t.secMu.Lock()
	t.secondary.put(teid, ip, ue)
	t.secMu.Unlock()
}

// RemoveSecondary removes a device entirely (detach). Control thread; the
// caller must also evict it from the primary via the update queue.
func (t *TwoLevel) RemoveSecondary(teid, ip uint32) {
	t.secMu.Lock()
	t.secondary.del(teid, ip)
	t.secMu.Unlock()
}

// Promote moves a device into the primary table under both keys. In a
// running slice this executes on the data thread when draining the
// update queue; in single-threaded setups (tests, Figure 14 sweeps) the
// control logic may call it directly.
func (t *TwoLevel) Promote(teid, ip uint32, ue *UE) {
	t.primary.put(teid, ip, ue)
}

// Evict removes a device from the primary table (idle timeout or explicit
// release); its state remains in the secondary. Runs on the data thread
// via the update queue, like Promote.
func (t *TwoLevel) Evict(teid, ip uint32) {
	t.primary.del(teid, ip)
}

// EvictIdle scans the primary and evicts devices idle for longer than
// idleNs at time now (monotonic nanos). Evictions are applied through
// apply (both keys), which in a running slice enqueues data-thread
// updates. Control thread.
func (t *TwoLevel) EvictIdle(now, idleNs int64, apply func(teid, ip uint32)) int {
	type pair struct{ teid, ip uint32 }
	var idle []pair
	t.primary.ByTEID.Range(func(teid uint32, ue *UE) bool {
		ue.ReadCtrl(func(c *ControlState) {
			if now-c.LastActive > idleNs {
				idle = append(idle, pair{teid, c.UEAddr})
			}
		})
		return true
	})
	for _, p := range idle {
		apply(p.teid, p.ip)
	}
	return len(idle)
}
