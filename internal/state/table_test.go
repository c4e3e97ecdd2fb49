package state

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pepc/internal/pcef"
)

func TestTableInsertLookupRemove(t *testing.T) {
	for _, mode := range []LockMode{LockModePEPC, LockModeDatapathWriter, LockModeGiant} {
		t.Run(mode.String(), func(t *testing.T) {
			tb := NewTable(mode, 16)
			ue := newTestUE(1000, 2000, 3000)
			if err := tb.Insert(ue); err != nil {
				t.Fatal(err)
			}
			if err := tb.Insert(ue); err != ErrDuplicate {
				t.Fatalf("duplicate insert: %v", err)
			}
			if tb.Len() != 1 {
				t.Fatalf("len = %d", tb.Len())
			}
			if tb.LookupIMSI(1000) != ue || tb.LookupTEID(2000) != ue {
				t.Fatal("lookup mismatch")
			}
			got, err := tb.Remove(1000)
			if err != nil || got != ue {
				t.Fatalf("remove: %v %v", got, err)
			}
			if _, err := tb.Remove(1000); err != ErrNotFound {
				t.Fatalf("double remove: %v", err)
			}
			if tb.LookupTEID(2000) != nil || tb.LookupIMSI(1000) != nil {
				t.Fatal("indexes not cleaned on remove")
			}
		})
	}
}

func TestTableDataPathAllModes(t *testing.T) {
	for _, mode := range []LockMode{LockModePEPC, LockModeDatapathWriter, LockModeGiant} {
		t.Run(mode.String(), func(t *testing.T) {
			tb := NewTable(mode, 16)
			ue := newTestUE(1, 2, 3)
			tb.Insert(ue)
			ok := tb.DataPathTEID(2, func(c *ControlState, ctr *CounterState) {
				if c.IMSI != 1 {
					t.Errorf("ctrl state wrong: %d", c.IMSI)
				}
				ctr.UplinkPackets++
				ctr.UplinkBytes += 64
			})
			if !ok {
				t.Fatal("data path lookup failed")
			}
			ok = tb.DataPathIP(3, func(c *ControlState, ctr *CounterState) {
				ctr.DownlinkPackets++
			})
			if !ok {
				t.Fatal("downlink lookup failed")
			}
			if tb.DataPathTEID(99, func(*ControlState, *CounterState) {}) {
				t.Fatal("lookup of absent TEID succeeded")
			}
			var up, down uint64
			tb.CtrlReadCounters(ue, func(c *CounterState) { up, down = c.UplinkPackets, c.DownlinkPackets })
			if up != 1 || down != 1 {
				t.Fatalf("counters: up=%d down=%d", up, down)
			}
		})
	}
}

func TestTableCtrlWriteVisibleToDataPath(t *testing.T) {
	for _, mode := range []LockMode{LockModePEPC, LockModeDatapathWriter, LockModeGiant} {
		t.Run(mode.String(), func(t *testing.T) {
			tb := NewTable(mode, 16)
			ue := newTestUE(1, 2, 3)
			tb.Insert(ue)
			tb.CtrlWrite(ue, func(c *ControlState) { c.DownlinkTEID = 555 })
			var got uint32
			tb.DataPathTEID(2, func(c *ControlState, _ *CounterState) { got = c.DownlinkTEID })
			if got != 555 {
				t.Fatalf("data path read %d after ctrl write", got)
			}
		})
	}
}

func TestTableConcurrentDataAndControl(t *testing.T) {
	// Control ops and data-path accesses race across all modes without
	// data races (validated under -race) or lost counter updates.
	for _, mode := range []LockMode{LockModePEPC, LockModeDatapathWriter, LockModeGiant} {
		t.Run(mode.String(), func(t *testing.T) {
			tb := NewTable(mode, 1024)
			const users = 64
			ues := make([]*UE, users)
			for i := range ues {
				ues[i] = newTestUE(uint64(i+1), uint32(i+1), uint32(0x0a000000+i+1))
				tb.Insert(ues[i])
			}
			const pktsPerUser = 500
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // data thread
				defer wg.Done()
				for p := 0; p < pktsPerUser; p++ {
					for i := 0; i < users; i++ {
						tb.DataPathTEID(uint32(i+1), func(_ *ControlState, c *CounterState) {
							c.UplinkPackets++
						})
					}
				}
			}()
			go func() { // control thread
				defer wg.Done()
				for e := 0; e < 2000; e++ {
					ue := ues[e%users]
					tb.CtrlWrite(ue, func(c *ControlState) { c.ECGI = uint32(e) })
					tb.CtrlReadCounters(ue, func(c *CounterState) { _ = c.UplinkPackets })
				}
			}()
			wg.Wait()
			for i, ue := range ues {
				var got uint64
				tb.CtrlReadCounters(ue, func(c *CounterState) { got = c.UplinkPackets })
				if got != pktsPerUser {
					t.Fatalf("user %d: %d packets counted, want %d", i, got, pktsPerUser)
				}
			}
		})
	}
}

func TestUpdateQueueDrainApplies(t *testing.T) {
	ix := NewIndexes(16)
	q := NewUpdateQueue(64)
	ue := newTestUE(1, 10, 20)
	q.Push(Update{Op: OpInsert, TEID: 10, UEIP: 20, UE: ue})
	if n := q.Drain(ix); n != 1 {
		t.Fatalf("drained %d", n)
	}
	if ix.ByTEID.Get(10) != ue || ix.ByIP.Get(20) != ue {
		t.Fatal("insert not applied")
	}
	q.Push(Update{Op: OpDelete, TEID: 10, UEIP: 20})
	q.Drain(ix)
	if ix.ByTEID.Get(10) != nil || ix.ByIP.Get(20) != nil {
		t.Fatal("delete not applied")
	}
}

func TestUpdateQueueBackpressure(t *testing.T) {
	q := NewUpdateQueue(2)
	if !q.Push(Update{Op: OpInsert, TEID: 1, UE: &UE{}}) {
		t.Fatal("first push failed")
	}
	if !q.Push(Update{Op: OpInsert, TEID: 2, UE: &UE{}}) {
		t.Fatal("second push failed")
	}
	if q.Push(Update{Op: OpInsert, TEID: 3, UE: &UE{}}) {
		t.Fatal("push into full queue succeeded")
	}
}

func TestSnapshotMarshalRoundTrip(t *testing.T) {
	ue := newTestUE(123456789012345, 0xabcd, 0x0a0a0a0a)
	ue.WriteCtrl(func(c *ControlState) {
		c.GUTI = 999
		c.ECGI = 77
		c.TAI = 5
		c.TAIList = [8]uint16{1, 2, 3}
		c.TAICount = 3
		c.DownlinkTEID = 0x1111
		c.ENBAddr = 0x0b0b0b0b
		c.AMBRUplink = 100e6
		c.AMBRDownlink = 200e6
		c.RuleIDs = [4]uint32{9, 8, 7, 6}
		c.RuleCount = 4
		c.IoT = true
		c.LastActive = 424242
		c.KASME = [32]byte{1, 2, 3}
		c.NextSQN = 17
		c.Bearers[0].TFT = webFilter()
	})
	ue.WriteCounters(func(c *CounterState) {
		c.UplinkBytes = 1
		c.DownlinkBytes = 2
		c.UplinkPackets = 3
		c.DownlinkPackets = 4
		c.DroppedPackets = 5
		c.RuleBytes = [4]uint64{10, 20, 30, 40}
	})
	cs, cnt := ue.Snapshot()
	buf := make([]byte, SnapshotSize)
	n, err := MarshalSnapshot(buf, &cs, &cnt)
	if err != nil {
		t.Fatal(err)
	}
	if n != SnapshotSize {
		t.Fatalf("marshal wrote %d bytes, SnapshotSize=%d", n, SnapshotSize)
	}
	var cs2 ControlState
	var cnt2 CounterState
	if err := UnmarshalSnapshot(buf, &cs2, &cnt2); err != nil {
		t.Fatal(err)
	}
	if cs2 != cs {
		t.Fatalf("control state mismatch:\n got %+v\nwant %+v", cs2, cs)
	}
	if cnt2 != cnt {
		t.Fatalf("counter state mismatch: %+v vs %+v", cnt2, cnt)
	}
}

func TestSnapshotRejectsBadInput(t *testing.T) {
	var cs ControlState
	var cnt CounterState
	if err := UnmarshalSnapshot(make([]byte, 10), &cs, &cnt); err != ErrBadSnapshot {
		t.Fatalf("short: %v", err)
	}
	buf := make([]byte, SnapshotSize)
	buf[0] = 99 // wrong version
	if err := UnmarshalSnapshot(buf, &cs, &cnt); err != ErrBadSnapshot {
		t.Fatalf("version: %v", err)
	}
	if _, err := MarshalSnapshot(make([]byte, 10), &cs, &cnt); err != ErrBadSnapshot {
		t.Fatalf("small dst: %v", err)
	}
}

func webFilter() pcef.FilterSpec {
	return pcef.FilterSpec{
		DstAddr:   0x0a000000,
		DstPrefix: 8,
		Proto:     6,
		DstPortLo: 80, DstPortHi: 80,
	}
}

// TestSnapshotFilterGolden pins a bearer TFT's place and bytes in the
// snapshot and SnapshotSize itself: the filter's last 4 bytes are
// reserved (written zero, ignored on decode) and nothing else is set.
func TestSnapshotFilterGolden(t *testing.T) {
	var cs ControlState
	var cnt CounterState
	cs.Bearers[0].TFT = pcef.FilterSpec{SrcAddr: 0x0a010203, SrcPrefix: 24, DstAddr: 0xc0a80001, DstPrefix: 16,
		Proto: 17, SrcPortLo: 1000, SrcPortHi: 2000, DstPortLo: 5000, DstPortHi: 6000}
	const size, off, golden = 529, 179, "0302010a180100a8c01011e803d0078813701700000000"
	if SnapshotSize != size {
		t.Fatalf("SnapshotSize = %d, want %d", SnapshotSize, size)
	}
	buf := make([]byte, SnapshotSize)
	for i := range buf {
		buf[i] = 0xee // stale bytes from an earlier use must be overwritten
	}
	if _, err := MarshalSnapshot(buf, &cs, &cnt); err != nil {
		t.Fatal(err)
	}
	want, _ := hex.DecodeString(golden)
	if !bytes.Equal(buf[off:off+len(want)], want) {
		t.Fatalf("TFT encoding changed:\n got %x\nwant %s", buf[off:off+len(want)], golden)
	}
	for i, b := range buf {
		if (i < off || i >= off+len(want)) && b != 0 && i != 0 {
			t.Fatalf("byte %d = %#x outside the filter, want 0", i, b)
		}
	}
	for i := off + len(want) - 4; i < off+len(want); i++ {
		buf[i] = 0xff
	}
	var cs2 ControlState
	var cnt2 CounterState
	if err := UnmarshalSnapshot(buf, &cs2, &cnt2); err != nil || cs2 != cs {
		t.Fatalf("reserved bytes not ignored: %+v %v", cs2.Bearers[0].TFT, err)
	}
}

func BenchmarkDataPathLookup(b *testing.B) {
	for _, mode := range []LockMode{LockModePEPC, LockModeDatapathWriter, LockModeGiant} {
		b.Run(mode.String(), func(b *testing.B) {
			tb := NewTable(mode, 1<<16)
			for i := uint32(1); i <= 1<<16; i++ {
				tb.Insert(newTestUE(uint64(i), i, 0x0a000000+i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				teid := uint32(i)&0xffff + 1
				tb.DataPathTEID(teid, func(_ *ControlState, c *CounterState) {
					c.UplinkPackets++
				})
			}
		})
	}
}

// TestGiantLockWriterExcludesAllReaders verifies the mechanism behind the
// paper's Figure 12 deterministically (the throughput collapse itself is
// a parallel effect a single-CPU host cannot exhibit): while a control
// write on user A is in progress, the giant-lock design blocks data-path
// access to EVERY user, whereas PEPC's per-user locks only block user A.
func TestGiantLockWriterExcludesAllReaders(t *testing.T) {
	for _, mode := range []LockMode{LockModeGiant, LockModePEPC} {
		t.Run(mode.String(), func(t *testing.T) {
			tb := NewTable(mode, 16)
			ueA := newTestUE(1, 1, 101)
			ueB := newTestUE(2, 2, 102)
			tb.Insert(ueA)
			tb.Insert(ueB)

			writerIn := make(chan struct{})
			writerRelease := make(chan struct{})
			writerOut := make(chan struct{})
			go func() {
				tb.CtrlWrite(ueA, func(c *ControlState) {
					close(writerIn)
					<-writerRelease
				})
				close(writerOut)
			}()
			<-writerIn // the write lock on A (or the table) is now held

			// A data-path access to user B must complete while the write
			// is still in progress under PEPC, and must NOT complete under
			// the giant lock.
			readDone := make(chan struct{})
			go func() {
				tb.DataPathTEID(2, func(_ *ControlState, c *CounterState) {
					c.UplinkPackets++
				})
				close(readDone)
			}()

			select {
			case <-readDone:
				if mode == LockModeGiant {
					t.Fatal("giant lock: reader of user B proceeded during a write to user A")
				}
			case <-time.After(100 * time.Millisecond):
				if mode == LockModePEPC {
					t.Fatal("PEPC: reader of user B blocked by a write to user A")
				}
			}
			close(writerRelease)
			<-writerOut
			select {
			case <-readDone:
			case <-time.After(time.Second):
				t.Fatal("reader never completed after write finished")
			}
		})
	}
}

// TestTableModelProperty runs randomized Insert/Remove/DataPath/
// LookupIMSI sequences against every lock mode and checks the table agrees
// with a plain reference model at every step.
func TestTableModelProperty(t *testing.T) {
	for _, mode := range []LockMode{LockModePEPC, LockModeDatapathWriter, LockModeGiant} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			tb := NewTable(mode, 64)
			type entry struct {
				ue   *UE
				teid uint32
				ip   uint32
			}
			model := map[uint64]*entry{}
			teidOf := map[uint32]uint64{}
			nextTEID := uint32(1)
			for step := 0; step < 20000; step++ {
				switch rng.Intn(4) {
				case 0: // insert
					imsi := uint64(rng.Intn(200) + 1)
					ue := newTestUE(imsi, nextTEID, 0x0a000000+nextTEID)
					err := tb.Insert(ue)
					if _, dup := model[imsi]; dup {
						if err != ErrDuplicate {
							t.Fatalf("step %d: duplicate insert err=%v", step, err)
						}
					} else {
						if err != nil {
							t.Fatalf("step %d: insert: %v", step, err)
						}
						model[imsi] = &entry{ue: ue, teid: nextTEID, ip: 0x0a000000 + nextTEID}
						teidOf[nextTEID] = imsi
						nextTEID++
					}
				case 1: // remove
					imsi := uint64(rng.Intn(200) + 1)
					ue, err := tb.Remove(imsi)
					if e, ok := model[imsi]; ok {
						if err != nil || ue != e.ue {
							t.Fatalf("step %d: remove: %v %p", step, err, ue)
						}
						delete(teidOf, e.teid)
						delete(model, imsi)
					} else if err != ErrNotFound {
						t.Fatalf("step %d: remove absent: %v", step, err)
					}
				case 2: // data path by TEID
					teid := uint32(rng.Intn(int(nextTEID)) + 1)
					found := tb.DataPathTEID(teid, func(_ *ControlState, c *CounterState) {
						c.UplinkPackets++
					})
					_, want := teidOf[teid]
					if found != want {
						t.Fatalf("step %d: lookup teid %d: found=%v want=%v", step, teid, found, want)
					}
				default: // control lookup by IMSI
					imsi := uint64(rng.Intn(200) + 1)
					got := tb.LookupIMSI(imsi)
					if e, ok := model[imsi]; ok {
						if got != e.ue {
							t.Fatalf("step %d: lookup imsi: %p want %p", step, got, e.ue)
						}
					} else if got != nil {
						t.Fatalf("step %d: lookup absent imsi returned %p", step, got)
					}
				}
				if tb.Len() != len(model) {
					t.Fatalf("step %d: len %d vs model %d", step, tb.Len(), len(model))
				}
			}
		})
	}
}
