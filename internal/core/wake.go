package core

import (
	"runtime"
	"sync/atomic"

	"pepc/internal/pkt"
	"pepc/internal/state"
)

// Waker lets producers reach a data thread that blocks when idle instead
// of polling its rings (pepcd's lane parks in its socket read). The owner
// stores Parked, re-checks Slice.DataPending, and only then blocks;
// producers — another lane's steering, a migration drain, a paging
// resume, a control→data update, the extract fence — enqueue first and
// then call Slice.wakeData, which kicks iff Parked. Go atomics are
// sequentially consistent, so either the producer sees Parked or the
// owner's re-check sees the item: no wake-up is lost, and a kick that
// lands on an owner already awake costs one empty pass. One Waker may
// serve every slice of a lane. DESIGN.md §4.13 has the long form.
type Waker struct {
	Parked atomic.Bool
	// Kick makes the owner's blocking call return, now or on its next
	// entry; safe from any goroutine.
	Kick func()
}

// BindData makes the calling goroutine the slice's data thread until
// ReleaseData: it owns SyncUpdates, Process*Batch and the consumer side
// of the ingress rings (as RunData does for in-process users), the
// migration fence and full-queue update pushes wait on it, and producers
// wake it through w.
func (s *Slice) BindData(w *Waker) {
	s.waker.Store(w)
	s.data.running.Store(true)
}

// ReleaseData ends BindData and returns the data thread's cached buffers
// to the shared pool.
func (s *Slice) ReleaseData() {
	s.data.running.Store(false)
	s.waker.Store(nil)
	s.data.cache.Flush()
}

// DataPending reports whether anything waits for the data thread: a
// packet in either ingress ring or a queued control→data update.
func (s *Slice) DataPending() bool {
	return s.Uplink.Len() > 0 || s.Downlink.Len() > 0 || s.updates.Len() > 0
}

// wakeData is the one place producers reach a parked data thread from;
// one atomic load when none is bound.
func (s *Slice) wakeData() {
	if w := s.waker.Load(); w != nil && w.Parked.Load() {
		w.Kick()
	}
}

// enqueue hands one packet to the data thread, reporting false when the
// ring is full (the caller frees it).
func (s *Slice) enqueue(b *pkt.Buf, uplink bool) bool {
	q := s.Downlink
	if uplink {
		q = s.Uplink
	}
	ok := q.Enqueue(b)
	s.wakeData()
	return ok
}

// pushUpdate queues one index change for the data thread. While one is
// bound, a full queue waits for its next sync rather than dropping the
// update (a dropped insert is a user the data plane never finds); with
// none the caller drives both planes and the push stays best effort.
func (s *Slice) pushUpdate(u state.Update) {
	for !s.updates.Push(u) && s.data.running.Load() {
		s.wakeData()
		runtime.Gosched()
	}
	s.wakeData()
}
