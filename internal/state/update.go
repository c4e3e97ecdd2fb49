package state

import "pepc/internal/ring"

// This file implements the control→data update channel of a PEPC slice
// (Listing 1's notification path, §7.2 "PEPC batches updates to the data
// plane, related to the insertion or deletion of a specific user state").
// The control thread enqueues index operations; the data thread owns its
// index maps and applies queued operations between packet batches — by
// default every SyncEvery packets (the paper syncs every 32).

// DefaultSyncEvery is the paper's batching interval: the data plane syncs
// updates from the control plane every 32 packets.
const DefaultSyncEvery = 32

// UpdateOp is the kind of index change.
type UpdateOp uint8

// Update operations.
const (
	// OpInsert adds the user to the data-path indexes (attach, restore
	// or migration in).
	OpInsert UpdateOp = iota
	// OpDelete removes the user from the data-path indexes (detach or
	// migration away).
	OpDelete
)

// Update is one control→data index operation.
type Update struct {
	Op   UpdateOp
	TEID uint32 // uplink TEID index key, 0 to skip the TEID index
	UEIP uint32 // UE address index key, 0 to skip the IP index
	UE   *UE    // the user (OpInsert)
}

// Indexes are the data-thread-owned lookup structures (Listing 1's
// dp_state): uplink traffic resolves by TEID, downlink by UE IP, each
// map from key to *UE. Only the data thread touches them; no locks.
type Indexes struct {
	ByTEID *U32Map
	ByIP   *U32Map
}

// NewIndexes returns data-path indexes sized for sizeHint users.
func NewIndexes(sizeHint int) *Indexes {
	return &Indexes{ByTEID: NewU32Map(sizeHint), ByIP: NewU32Map(sizeHint)}
}

// GetHotBatch resolves keys[i] into hot halves out[i] (nil on miss),
// using the maps' software-pipelined batch probes. Data thread; zero
// allocations.
func (ix *Indexes) GetHotBatch(keys []uint32, uplink bool, out []*HotUE) {
	m := ix.ByTEID
	if !uplink {
		m = ix.ByIP
	}
	m.GetHotBatch(keys, uplink, out)
}

// Apply executes one update against the indexes (a 0 key skips its
// domain).
func (ix *Indexes) Apply(u Update) {
	switch u.Op {
	case OpInsert:
		if u.TEID != 0 {
			ix.ByTEID.Put(u.TEID, u.UE)
		}
		if u.UEIP != 0 {
			ix.ByIP.Put(u.UEIP, u.UE)
		}
	case OpDelete:
		if u.TEID != 0 {
			ix.ByTEID.Delete(u.TEID)
		}
		if u.UEIP != 0 {
			ix.ByIP.Delete(u.UEIP)
		}
	}
}

// UpdateQueue carries updates from the control thread to the data thread.
// MPSC because the node scheduler (migrations) and the control thread both
// produce.
type UpdateQueue struct {
	q *ring.MPSC[Update]
}

// NewUpdateQueue returns a queue with the given capacity (power of two).
func NewUpdateQueue(capacity int) *UpdateQueue {
	return &UpdateQueue{q: ring.MustMPSC[Update](capacity)}
}

// Push enqueues an update, reporting false when the queue is full (the
// control plane then applies backpressure to signaling).
func (uq *UpdateQueue) Push(u Update) bool { return uq.q.Enqueue(u) }

// PushBatch enqueues a batch of updates accumulated by one signaling
// drain, returning how many fit. The batched control path stages its
// index operations in a scratch slice and hands them over in one call,
// amortizing the per-update call overhead the same way the data plane
// batches packets.
func (uq *UpdateQueue) PushBatch(us []Update) int { return uq.q.EnqueueBatch(us) }

// Drain applies every queued update to ix, returning the count. Data
// thread only; called between packet batches.
func (uq *UpdateQueue) Drain(ix *Indexes) int {
	n := 0
	for {
		u, ok := uq.q.Dequeue()
		if !ok {
			return n
		}
		ix.Apply(u)
		n++
	}
}

// DrainFunc dequeues every queued update into fn without applying it,
// returning the count. This is the raw drain crash recovery uses: the
// surviving queue of a failed slice is replayed against the restored
// checkpoint by snapshotting the referenced contexts, never by aliasing
// them into the new slice's indexes. Single consumer only.
func (uq *UpdateQueue) DrainFunc(fn func(Update)) int {
	n := 0
	for {
		u, ok := uq.q.Dequeue()
		if !ok {
			return n
		}
		fn(u)
		n++
	}
}

// Len returns the approximate queue depth.
func (uq *UpdateQueue) Len() int { return uq.q.Len() }
