package state

import (
	"errors"
	"sync"
)

// LockMode selects one of the three shared-state designs the paper
// compares in §7.1 / Figure 12.
type LockMode uint8

const (
	// LockModePEPC: fine-grained per-user locks with the single-writer
	// split — the data thread takes a read lock on control state and a
	// write lock on its own counter state; the control thread the
	// reverse. This is PEPC's design.
	LockModePEPC LockMode = iota
	// LockModeDatapathWriter: fine-grained per-user lock, but a single
	// combined state record that both the data and control threads write,
	// so the data thread must take the exclusive lock per packet.
	LockModeDatapathWriter
	// LockModeGiant: one table-level lock protects the entire state
	// table; control updates exclude all data-path readers.
	LockModeGiant
)

// String implements fmt.Stringer.
func (m LockMode) String() string {
	switch m {
	case LockModePEPC:
		return "PEPC"
	case LockModeDatapathWriter:
		return "DatapathWriter"
	case LockModeGiant:
		return "GiantLock"
	}
	return "LockMode(?)"
}

// Table errors.
var (
	ErrDuplicate = errors.New("state: key already present")
	ErrNotFound  = errors.New("state: user not found")
)

// Table is a shared per-user state table indexed by uplink TEID, UE IP
// address and IMSI, with its concurrency discipline selected by LockMode.
// It is the single-table design of current EPCs (§3.2 "many current EPC
// implementations store all user state in a single table") and also serves
// as PEPC's control-plane-side store; PEPC's data thread normally owns its
// own Indexes fed by the update queue (see core).
type Table struct {
	mode LockMode

	// giantMu is the table-level lock in LockModeGiant; in the other
	// modes it is unused and idxMu alone protects the index structures
	// for the brief lookup/insert windows.
	giantMu sync.RWMutex
	idxMu   sync.RWMutex

	byTEID *U32Map
	byIP   *U32Map
	byIMSI *U64Map

	// dpCtrl is the data thread's control-state scratch: in PEPC mode the
	// per-packet control read is a seqlock snapshot into this buffer
	// rather than a locked read of ue.Ctrl, so a control write in flight
	// never stalls a packet. Only the data thread touches it (one data
	// thread per table), so it needs no lock.
	dpCtrl ControlState
}

// NewTable returns a table pre-sized for sizeHint users.
func NewTable(mode LockMode, sizeHint int) *Table {
	return &Table{
		mode:   mode,
		byTEID: NewU32Map(sizeHint),
		byIP:   NewU32Map(sizeHint),
		byIMSI: NewU64Map(sizeHint),
	}
}

// Len returns the number of users in the table.
func (t *Table) Len() int {
	t.lockIdxR()
	n := t.byIMSI.Len()
	t.unlockIdxR()
	return n
}

func (t *Table) lockIdxR() {
	if t.mode == LockModeGiant {
		t.giantMu.RLock()
	} else {
		t.idxMu.RLock()
	}
}

func (t *Table) unlockIdxR() {
	if t.mode == LockModeGiant {
		t.giantMu.RUnlock()
	} else {
		t.idxMu.RUnlock()
	}
}

func (t *Table) lockIdxW() {
	if t.mode == LockModeGiant {
		t.giantMu.Lock()
	} else {
		t.idxMu.Lock()
	}
}

func (t *Table) unlockIdxW() {
	if t.mode == LockModeGiant {
		t.giantMu.Unlock()
	} else {
		t.idxMu.Unlock()
	}
}

// Insert adds a user under all three indexes (control thread).
func (t *Table) Insert(ue *UE) error {
	cs, _ := ue.Snapshot()
	t.lockIdxW()
	defer t.unlockIdxW()
	if t.byIMSI.Get(cs.IMSI) != nil {
		return ErrDuplicate
	}
	t.byIMSI.Put(cs.IMSI, ue)
	if cs.UplinkTEID != 0 {
		t.byTEID.Put(cs.UplinkTEID, ue)
	}
	if cs.UEAddr != 0 {
		t.byIP.Put(cs.UEAddr, ue)
	}
	return nil
}

// Remove deletes a user from all indexes and returns it (control thread).
func (t *Table) Remove(imsi uint64) (*UE, error) {
	t.lockIdxW()
	defer t.unlockIdxW()
	ue := t.byIMSI.Delete(imsi)
	if ue == nil {
		return nil, ErrNotFound
	}
	// The control fields are stable here: only the control thread, the
	// caller, mutates them.
	if ue.Ctrl.UplinkTEID != 0 {
		t.byTEID.Delete(ue.Ctrl.UplinkTEID)
	}
	if ue.Ctrl.UEAddr != 0 {
		t.byIP.Delete(ue.Ctrl.UEAddr)
	}
	return ue, nil
}

// Rekey updates the TEID index after a handover changed a user's uplink
// TEID (control thread).
func (t *Table) Rekey(oldTEID, newTEID uint32, ue *UE) {
	t.lockIdxW()
	if oldTEID != 0 {
		t.byTEID.Delete(oldTEID)
	}
	if newTEID != 0 {
		t.byTEID.Put(newTEID, ue)
	}
	t.unlockIdxW()
}

// LookupIMSI finds a user by IMSI (control path).
func (t *Table) LookupIMSI(imsi uint64) *UE {
	t.lockIdxR()
	ue := t.byIMSI.Get(imsi)
	t.unlockIdxR()
	return ue
}

// LookupIMSIBatch resolves a batch of IMSIs under a single index-lock
// acquisition, storing the result (nil where absent) in out[i] and
// returning the found count. The batched signaling path uses it to
// amortize index locking across a drain of procedures.
func (t *Table) LookupIMSIBatch(imsis []uint64, out []*UE) int {
	found := 0
	t.lockIdxR()
	for i, imsi := range imsis {
		out[i] = t.byIMSI.Get(imsi)
		if out[i] != nil {
			found++
		}
	}
	t.unlockIdxR()
	return found
}

// RemoveBatch deletes a batch of users from all indexes under a single
// index-lock acquisition, storing each removed context (nil where
// absent) in out[i] and returning the removed count.
func (t *Table) RemoveBatch(imsis []uint64, out []*UE) int {
	removed := 0
	t.lockIdxW()
	for i, imsi := range imsis {
		ue := t.byIMSI.Delete(imsi)
		out[i] = ue
		if ue == nil {
			continue
		}
		if ue.Ctrl.UplinkTEID != 0 {
			t.byTEID.Delete(ue.Ctrl.UplinkTEID)
		}
		if ue.Ctrl.UEAddr != 0 {
			t.byIP.Delete(ue.Ctrl.UEAddr)
		}
		removed++
	}
	t.unlockIdxW()
	return removed
}

// LookupTEID finds a user by uplink TEID without entering the data-path
// locking discipline (control path, migration).
func (t *Table) LookupTEID(teid uint32) *UE {
	t.lockIdxR()
	ue := t.byTEID.Get(teid)
	t.unlockIdxR()
	return ue
}

// DataPathTEID performs one data-path access keyed by uplink TEID: it
// locates the user and runs fn with read access to control state and
// write access to counter state, under the table's locking discipline.
// It reports whether the user was found. This is the per-packet operation
// Figure 12 measures.
func (t *Table) DataPathTEID(teid uint32, fn func(*ControlState, *CounterState)) bool {
	return t.dataPath(teid, t.byTEID, fn)
}

// DataPathIP is DataPathTEID keyed by UE IP address (downlink).
func (t *Table) DataPathIP(ip uint32, fn func(*ControlState, *CounterState)) bool {
	return t.dataPath(ip, t.byIP, fn)
}

func (t *Table) dataPath(key uint32, idx *U32Map, fn func(*ControlState, *CounterState)) bool {
	switch t.mode {
	case LockModeGiant:
		// The whole access — lookup, control read, counter write —
		// happens under the table-level read lock. A concurrent control
		// update takes the write lock and stalls every packet.
		t.giantMu.RLock()
		ue := idx.Get(key)
		if ue == nil {
			t.giantMu.RUnlock()
			return false
		}
		fn(&ue.Ctrl, &ue.Hot().Counters)
		t.giantMu.RUnlock()
		return true
	case LockModeDatapathWriter:
		// Index reads are lock-free in both fine-grained designs: the
		// data thread owns its index maps and structural changes arrive
		// through the update queue (Listing 1); this ablation varies
		// only the per-user state locking. Callers must not mutate the
		// index concurrently with data-path reads.
		ue := idx.Get(key)
		if ue == nil {
			return false
		}
		// One combined record: the data thread writes it, so it must
		// take the exclusive per-user lock for every packet.
		ue.ctrlMu.Lock()
		fn(&ue.Ctrl, &ue.Hot().Counters)
		ue.ctrlMu.Unlock()
		return true
	default: // LockModePEPC
		ue := idx.Get(key)
		if ue == nil {
			return false
		}
		// Wait-free control read: seqlock snapshot into the table's
		// data-thread scratch. The counter half still takes its own
		// lock — the data thread is its only writer, so it never blocks
		// on control activity.
		ue.ReadCtrlSnapshot(&t.dpCtrl)
		h := ue.Hot()
		h.cmu.Lock()
		fn(&t.dpCtrl, &h.Counters)
		h.cmu.Unlock()
		return true
	}
}

// CtrlWrite performs a control-plane write to a user's control state under
// the table's locking discipline (signaling events: attach updates,
// handovers, PCRF rule pushes).
func (t *Table) CtrlWrite(ue *UE, fn func(*ControlState)) {
	switch t.mode {
	case LockModeGiant:
		t.giantMu.Lock()
		fn(&ue.Ctrl)
		ue.Ctrl.Epoch++
		t.giantMu.Unlock()
	case LockModeDatapathWriter:
		ue.ctrlMu.Lock()
		fn(&ue.Ctrl)
		ue.Ctrl.Epoch++
		ue.ctrlMu.Unlock()
	default:
		ue.WriteCtrl(fn)
	}
}

// CtrlReadCounters reads a user's counters from the control plane (usage
// reporting to the PCRF) under the table's locking discipline.
func (t *Table) CtrlReadCounters(ue *UE, fn func(*CounterState)) {
	switch t.mode {
	case LockModeGiant:
		// The data thread writes counters while holding the shared lock
		// (it is the only writer), so a control-side read must take the
		// exclusive lock to avoid tearing — stalling the whole data
		// plane, which is exactly the giant-lock pathology.
		t.giantMu.Lock()
		fn(&ue.Hot().Counters)
		t.giantMu.Unlock()
	case LockModeDatapathWriter:
		ue.ctrlMu.Lock()
		fn(&ue.Hot().Counters)
		ue.ctrlMu.Unlock()
	default:
		ue.ReadCounters(fn)
	}
}

// Range iterates users (control path; index lock held throughout).
func (t *Table) Range(fn func(*UE) bool) {
	t.lockIdxR()
	defer t.unlockIdxR()
	t.byIMSI.Range(func(_ uint64, ue *UE) bool { return fn(ue) })
}
