package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"pepc/internal/fault"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// Waker lets producers reach a data thread that blocks when idle instead
// of polling its rings (pepcd's lane parks in its socket read, RunData in
// a channel receive). The owner stores Parked, re-checks
// Slice.DataPending, and only then blocks; producers — another lane's
// steering, a migration drain, a paging resume, the update queue
// reaching updateWakeAt, the extract fence — enqueue first and then call
// Slice.wakeData, which kicks iff Parked. Go atomics are sequentially
// consistent, so either the producer sees Parked or the owner's re-check
// sees the item: no wake-up is lost, and a kick that lands on an owner
// already awake costs one empty pass. One Waker may serve every slice of
// a lane. DESIGN.md §4.13 has the long form.
type Waker struct {
	Parked atomic.Bool
	// Kick makes the owner's blocking call return, now or on its next
	// entry; safe from any goroutine.
	Kick func()
}

// BindData makes the calling goroutine the slice's data thread until
// ReleaseData: it owns RunPass and with it the consumer side of the
// ingress rings, the migration fence and full-queue update pushes wait on
// it, and producers wake it through w.
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

// RunPass is one pass of the slice's data thread (§3.1 fn. 4: a batch
// runs to completion, housekeeping happens between batches): an injected
// fault.WorkerStall, if armed, then up to len(proc) packets from Uplink
// and up to len(proc) from Downlink through Process*Batch. Every pass
// syncs the control→data updates, and each ring's batch is synced after
// it is dequeued, so an update pushed before a packet was enqueued (an
// attach, then the user's first packet) is in the indexes when that
// packet is looked up. Forwarded packets stay on Egress for the caller.
// Returns the packets processed; data thread only, proc is its scratch.
func (s *Slice) RunPass(proc []*pkt.Buf) int {
	if s.faults != nil {
		if d := s.faults.FireDelay(fault.WorkerStall); d > 0 {
			time.Sleep(d) // a preempted or wedged data core, never mid-batch
		}
	}
	up := s.Uplink.DequeueBatch(proc)
	s.data.SyncUpdates()
	if up > 0 {
		s.data.ProcessUplinkBatch(proc[:up], sim.Now())
	}
	down := s.Downlink.DequeueBatch(proc)
	if down > 0 {
		s.data.SyncUpdates()
		s.data.ProcessDownlinkBatch(proc[:down], sim.Now())
	}
	return up + down
}

// dataBatch is RunData's per-ring budget for one pass, the paper's batch
// size.
const dataBatch = 32

// RunData is the slice's data thread for in-process users until stop
// closes: RunPass while the slice has work, parked in a channel receive
// when it has none. It binds like pepcd's lane, so every producer wakes
// it the same way; its Kick is a non-blocking send on a 1-slot channel
// (one pending kick is enough). Egress stays on the ring for the caller.
func (s *Slice) RunData(stop <-chan struct{}) {
	kicks := make(chan struct{}, 1)
	w := &Waker{Kick: func() {
		select {
		case kicks <- struct{}{}:
		default:
		}
	}}
	s.BindData(w)
	defer s.ReleaseData()
	proc := make([]*pkt.Buf, dataBatch)
	for {
		select {
		case <-stop:
			return
		default:
		}
		s.RunPass(proc)
		w.Parked.Store(true)
		if !s.DataPending() {
			select {
			case <-kicks:
			case <-stop:
				return
			}
		}
		w.Parked.Store(false)
	}
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

// updateWakeAt is the update-queue depth at which a push wakes a parked
// data thread. Below it an update rides the next packet: RunPass syncs
// after it dequeues and before it looks anything up, so the packet that
// needs an update brings the thread that applies it. The watermark keeps
// the queue from filling and keeps syncs, and with them the context free
// list's two-sync fence, advancing while no packet comes.
const updateWakeAt = 256

// pushUpdates queues index changes for the data thread. While one is
// bound, a full queue wakes it and waits for its next sync rather than
// dropping (a dropped insert is a user the data plane never finds); with
// none the caller drives both planes, and what does not fit is dropped
// and counted in UpdateDrops.
func (s *Slice) pushUpdates(us ...state.Update) {
	pushed := s.updates.PushBatch(us)
	for pushed < len(us) && s.data.running.Load() {
		s.wakeData()
		runtime.Gosched()
		pushed += s.updates.PushBatch(us[pushed:])
	}
	if pushed < len(us) {
		s.ctrl.UpdateDrops.Add(uint64(len(us) - pushed))
	}
	if s.updates.Len() >= updateWakeAt {
		s.wakeData()
	}
}
