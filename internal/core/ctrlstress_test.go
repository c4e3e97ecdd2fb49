package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// TestSeqlockStressConcurrentSignaling drives a control thread through
// attach/handover/detach/re-attach churn (inline procedures plus the
// batched signaling ring) while the data thread processes full-rate
// uplink batches against the same population. Under -race the seqlock
// readers fall back to the lock and the detector checks the discipline;
// in normal builds the optimistic copy-and-validate path and the
// free-list recycling fence are exercised for real — torn reads or a
// prematurely recycled context would corrupt tunnel state and break the
// accounting below.
func TestSeqlockStressConcurrentSignaling(t *testing.T) {
	const users = 128
	ctrlIters := 20_000
	if raceEnabled || testing.Short() {
		ctrlIters = 2_000
	}

	s := NewSlice(SliceConfig{ID: 1, UserHint: users * 2})
	specs := make([]AttachSpec, users)
	results := make([]AttachResult, users)
	for i := 0; i < users; i++ {
		specs[i] = AttachSpec{
			IMSI: uint64(1000 + i), ENBAddr: pkt.IPv4Addr(192, 168, 0, 1),
			DownlinkTEID: 0x100 + uint32(i), ECGI: 7, TAI: 3,
			AMBRUplink: 8 * 1_000_000_000, // policed but never the bottleneck
		}
		res, err := s.Control().Attach(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	s.Data().SyncUpdates()

	var ctrlDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ctrlDone.Store(true)
		cp := s.Control()
		for i := 0; i < ctrlIters; i++ {
			u := i % users
			imsi := specs[u].IMSI
			switch i % 4 {
			case 0:
				_ = cp.AttachEvent(imsi)
			case 1:
				_ = cp.S1Handover(imsi, pkt.IPv4Addr(192, 168, 1, byte(i)), 0x8000+uint32(i), uint32(i))
			case 2:
				// Full detach/re-attach cycle: exercises RemoveBatch-free
				// inline path, the free list and the recycling fence while
				// the data thread may still hold the old pointer.
				if err := cp.Detach(imsi); err == nil {
					if _, err := cp.Attach(specs[u]); err != nil {
						t.Errorf("re-attach %d: %v", imsi, err)
						return
					}
				}
			case 3:
				cp.EnqueueSignal(SigEvent{Kind: SigS1Handover, IMSI: imsi,
					ENBAddr: pkt.IPv4Addr(192, 168, 2, byte(i)), DownlinkTEID: 0x9000 + uint32(i), ECGI: uint32(i)})
				if i%64 == 3 {
					for cp.DrainSignaling(0) > 0 {
					}
				}
			}
		}
		for cp.DrainSignaling(0) > 0 {
		}
	}()

	// Data thread: full-rate uplink batches round-robin over the original
	// identifiers. Re-attached users keep the same TEID (recycled) or get
	// a fresh one (fence not yet cleared) — either a forward or a clean
	// miss; never a crash or a torn read.
	pool := pkt.NewPool(2048, 256)
	const batchSize = 32
	batch := make([]*pkt.Buf, 0, batchSize)
	sent := 0
	next := 0
	// Keep going until the control thread finishes AND a minimum volume
	// has flowed, so forwarding is exercised both during and after churn.
	for sent < 4096 || !ctrlDone.Load() {
		batch = batch[:0]
		for i := 0; i < batchSize; i++ {
			r := results[next%users]
			next++
			batch = append(batch, buildUplink(pool, r.UplinkTEID, r.UEAddr,
				pkt.IPv4Addr(192, 168, 0, 1), s.Config().CoreAddr, 80))
		}
		s.Data().ProcessUplinkBatch(batch, sim.Now())
		sent += batchSize
		drainEgress(s)
	}
	wg.Wait()
	s.Data().SyncUpdates()
	drainEgress(s)

	// Deterministic recycle: with the data plane quiesced, two syncs clear
	// the fence for the oldest retiree, so this attach must reuse it.
	if err := s.Control().Detach(specs[0].IMSI); err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	s.Data().SyncUpdates()
	if _, err := s.Control().Attach(specs[0]); err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()

	fwd := s.Data().Forwarded.Load()
	drp := s.Data().Dropped.Load()
	if fwd+drp != uint64(sent) {
		t.Fatalf("packet accounting broken: forwarded=%d dropped=%d sent=%d", fwd, drp, sent)
	}
	if fwd == 0 {
		t.Fatal("no packets forwarded under signaling churn")
	}

	// Every surviving context is internally consistent.
	var cs state.ControlState
	alive := 0
	for i := 0; i < users; i++ {
		ue := s.Control().Lookup(specs[i].IMSI)
		if ue == nil {
			continue
		}
		alive++
		ue.ReadCtrlSnapshot(&cs)
		if cs.IMSI != specs[i].IMSI || !cs.Attached || cs.BearerCount == 0 {
			t.Fatalf("imsi %d: inconsistent context after churn: %+v", specs[i].IMSI, cs)
		}
		if cs.UplinkTEID == 0 || cs.UEAddr == 0 {
			t.Fatalf("imsi %d: zero identifiers after churn: %+v", specs[i].IMSI, cs)
		}
	}
	if alive != users {
		t.Fatalf("population leaked: %d of %d users alive", alive, users)
	}
	st := s.Control().Stats()
	if st.Handovers == 0 || st.Detaches == 0 {
		t.Fatalf("churn did not execute: %+v", st)
	}
	if st.Recycles == 0 {
		t.Fatalf("free list never recycled a context: %+v", st)
	}
}

// TestControlEntriesSerialize: four goroutines attach users to one slice
// through Node.AttachUser at once, each removing every second user it
// attached with Node.DetachUser. The entries serialize on the slice's
// control lock, so the allocator never issues one identifier pair twice,
// the free list never loses or duplicates a context, and the population
// and event counters come out exact.
func TestControlEntriesSerialize(t *testing.T) {
	const writers = 4
	perWriter := 200_000
	if raceEnabled || testing.Short() {
		perWriter = 5_000
	}
	n := NewNode(SliceConfig{ID: 1, UserHint: writers * perWriter / 2})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				imsi := uint64(w*perWriter + i + 1)
				if _, err := n.AttachUser(0, AttachSpec{IMSI: imsi, ENBAddr: 1, DownlinkTEID: uint32(i + 1)}); err != nil {
					t.Errorf("attach %d: %v", imsi, err)
					return
				}
				if i%2 == 1 {
					if err := n.DetachUser(0, imsi); err != nil {
						t.Errorf("detach %d: %v", imsi, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	s := n.Slice(0)
	teids := make(map[uint32]uint64, writers*perWriter/2)
	addrs := make(map[uint32]uint64, writers*perWriter/2)
	var dupTEID, dupAddr int
	s.cp.Range(func(ue *state.UE) bool {
		var cs state.ControlState
		ue.ReadCtrlSnapshot(&cs)
		if _, dup := teids[cs.UplinkTEID]; dup {
			dupTEID++
		}
		if _, dup := addrs[cs.UEAddr]; dup {
			dupAddr++
		}
		teids[cs.UplinkTEID] = cs.IMSI
		addrs[cs.UEAddr] = cs.IMSI
		return true
	})
	if dupTEID != 0 || dupAddr != 0 {
		t.Fatalf("live users sharing identifiers: %d uplink TEIDs, %d UE addresses", dupTEID, dupAddr)
	}
	attaches, detaches := uint64(writers*perWriter), uint64(writers*perWriter/2)
	if got, want := s.Users(), int(attaches-detaches); got != want {
		t.Fatalf("users = %d, want %d attached minus detached", got, want)
	}
	if st := s.Control().Stats(); st.Attaches != attaches || st.Detaches != detaches {
		t.Fatalf("stats: attaches=%d detaches=%d, want %d and %d", st.Attaches, st.Detaches, attaches, detaches)
	}
}
