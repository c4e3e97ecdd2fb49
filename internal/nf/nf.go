// Package nf is the run-to-completion execution framework PEPC's threads
// run on — the NetBricks substitute. A Worker owns an input ring (its
// "NIC queue"), dequeues packets in batches, runs its handler to
// completion on each batch, and performs housekeeping (update-queue
// drains, timer work) between batches — never mid-packet, matching the
// paper's no-preemption model (§3.1 footnote 4).
package nf

import (
	"runtime"
	"sync/atomic"
	"time"

	"pepc/internal/fault"
	"pepc/internal/pkt"
)

// DefaultBatchSize is the per-poll packet budget, the paper's update
// batching granularity (32).
const DefaultBatchSize = 32

// Stats counts worker activity. Fields are updated by the worker and may
// be read concurrently through atomic loads via the Stats method.
type Stats struct {
	Packets   atomic.Uint64
	Batches   atomic.Uint64
	IdlePolls atomic.Uint64
	Drops     atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Packets   uint64
	Batches   uint64
	IdlePolls uint64
	Drops     uint64
}

// Source is anything a worker can poll packets from: the SPSC ring of a
// dedicated queue or the MPSC ring of a queue with several producers
// (demux thread, migration drain, paging resume).
type Source interface {
	DequeueBatch(vs []*pkt.Buf) int
}

// Worker is one run-to-completion loop pinned (logically) to a core. The
// handler processes each dequeued batch fully; Housekeep runs between
// batches every HousekeepEvery processed packets.
type Worker struct {
	// In is the queue the worker polls.
	In Source
	// Handler processes a batch in place. Packets the handler wants to
	// forward it must enqueue/free itself; the worker only dequeues.
	Handler func(batch []*pkt.Buf)
	// In2/Handler2 optionally attach a second queue to the same loop
	// (e.g. the downlink direction next to In's uplink): every iteration
	// polls In then In2, so both directions run to completion on one
	// thread — the paper's single-data-core slice — instead of two
	// goroutines racing each other over single-consumer state.
	In2      Source
	Handler2 func(batch []*pkt.Buf)
	// Housekeep runs between batches (e.g. draining the control→data
	// update queue). Nil disables.
	Housekeep func()
	// HousekeepEvery is the packet interval between Housekeep calls
	// (default DefaultBatchSize, the paper's 32-packet sync).
	HousekeepEvery int
	// BatchSize is the per-poll dequeue budget (default DefaultBatchSize).
	BatchSize int
	// Cache optionally attaches the worker's level of the two-level
	// buffer pool (the handlers' free path). The worker flushes it when
	// the loop exits so cached buffers return to the shared pool.
	Cache *pkt.PoolCache
	// Faults optionally injects data-worker stalls: between iterations
	// the loop consults fault.WorkerStall and sleeps the armed delay when
	// it fires — a preempted or wedged data core. Nil disables.
	Faults *fault.Injector

	// Stalls counts injected worker stalls.
	Stalls atomic.Uint64

	stats Stats
}

// maybeStall consults the injector between batches; run-to-completion
// means a stall never lands mid-packet, matching the paper's
// no-preemption model even under fault injection.
func (w *Worker) maybeStall() {
	if w.Faults == nil {
		return
	}
	if d := w.Faults.FireDelay(fault.WorkerStall); d > 0 {
		w.Stalls.Add(1)
		time.Sleep(d)
	}
}

// Stats returns a snapshot of the worker counters.
func (w *Worker) Stats() StatsSnapshot {
	return StatsSnapshot{
		Packets:   w.stats.Packets.Load(),
		Batches:   w.stats.Batches.Load(),
		IdlePolls: w.stats.IdlePolls.Load(),
		Drops:     w.stats.Drops.Load(),
	}
}

// Run polls until stop is closed. It yields the processor on idle polls
// so co-scheduled workers (test environments with fewer physical cores
// than workers) make progress.
func (w *Worker) Run(stop <-chan struct{}) {
	if w.Cache != nil {
		defer w.Cache.Flush()
	}
	batchSize := w.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	hkEvery := w.HousekeepEvery
	if hkEvery <= 0 {
		hkEvery = DefaultBatchSize
	}
	batch := make([]*pkt.Buf, batchSize)
	sinceHK := 0
	idle := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		w.maybeStall()
		n := w.In.DequeueBatch(batch)
		if n > 0 {
			w.Handler(batch[:n])
			w.stats.Packets.Add(uint64(n))
			w.stats.Batches.Add(1)
			sinceHK += n
		}
		if w.In2 != nil {
			if n2 := w.In2.DequeueBatch(batch); n2 > 0 {
				w.Handler2(batch[:n2])
				w.stats.Packets.Add(uint64(n2))
				w.stats.Batches.Add(1)
				sinceHK += n2
				n += n2
			}
		}
		if n == 0 {
			w.stats.IdlePolls.Add(1)
			if w.Housekeep != nil {
				w.Housekeep()
				sinceHK = 0
			}
			idle++
			if idle > 64 {
				runtime.Gosched()
				idle = 0
			}
			continue
		}
		idle = 0
		if w.Housekeep != nil && sinceHK >= hkEvery {
			w.Housekeep()
			sinceHK = 0
		}
	}
}
