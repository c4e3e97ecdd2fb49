package nf

import (
	"sync/atomic"
	"testing"
	"time"

	"pepc/internal/fault"
	"pepc/internal/pkt"
	"pepc/internal/ring"
)

// runUntil runs w until done reports true, then stops it and waits for
// the loop to exit.
func runUntil(t *testing.T, w *Worker, done func() bool) {
	t.Helper()
	stop, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		w.Run(stop)
	}()
	for deadline := time.Now().Add(10 * time.Second); !done(); {
		if time.Now().After(deadline) {
			t.Fatal("worker did not finish its input in 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	<-exited
}

func TestWorkerProcessesAllPackets(t *testing.T) {
	in := ring.MustSPSC[*pkt.Buf](1024)
	pool := pkt.NewPool(256, 32)
	const total = 5000
	var got atomic.Int64
	w := &Worker{
		In: in,
		Handler: func(batch []*pkt.Buf) {
			for _, b := range batch {
				got.Add(1)
				b.Free()
			}
		},
	}
	go func() {
		for i := 0; i < total; {
			b := pool.Get()
			b.SetBytes([]byte{byte(i)})
			if in.Enqueue(b) {
				i++
			}
		}
	}()
	runUntil(t, w, func() bool { return got.Load() == total })
	if st := w.Stats(); st.Packets != total || st.Batches == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWorkerHousekeepCadence(t *testing.T) {
	in := ring.MustSPSC[*pkt.Buf](1024)
	pool := pkt.NewPool(256, 32)
	var hk, got atomic.Int64
	w := &Worker{
		In:             in,
		BatchSize:      8,
		HousekeepEvery: 32,
		Handler: func(batch []*pkt.Buf) {
			for _, b := range batch {
				got.Add(1)
				b.Free()
			}
		},
		Housekeep: func() { hk.Add(1) },
	}
	const total = 320
	for i := 0; i < total; i++ {
		in.Enqueue(pool.Get())
	}
	runUntil(t, w, func() bool { return got.Load() == total })
	// 320 packets at one housekeep per 32 → at least 10 (idle polls add
	// more).
	if hk.Load() < 10 {
		t.Fatalf("housekeep ran %d times, want >= 10", hk.Load())
	}
}

func TestWorkerRunStops(t *testing.T) {
	w := &Worker{In: ring.MustSPSC[*pkt.Buf](64), Handler: func(batch []*pkt.Buf) {}}
	runUntil(t, w, func() bool { return true })
}

// An armed WorkerStall must freeze the loop between batches (counted in
// Stalls) without losing packets.
func TestWorkerStallInjection(t *testing.T) {
	in := ring.MustSPSC[*pkt.Buf](64)
	inj := fault.New(1)
	inj.ArmDelay(fault.WorkerStall, fault.RateMax, 100*time.Microsecond)
	var got atomic.Int64
	w := &Worker{
		In:      in,
		Faults:  inj,
		Handler: func(batch []*pkt.Buf) { got.Add(int64(len(batch))) },
	}
	const total = 16
	for i := 0; i < total; i++ {
		in.Enqueue(pkt.NewBuf(64, 0))
	}
	runUntil(t, w, func() bool { return got.Load() == total })
	if w.Stalls.Load() == 0 {
		t.Fatal("no stalls injected despite RateMax arm")
	}
}
