// Package state implements PEPC's consolidated per-user state: the state
// taxonomy of the paper's Table 1, the UE context split into control-
// written and data-written halves with fine-grained per-user locks
// (paper §3.2), the state table and the data path's indexes (§3.2), and the alternative shared-state designs the paper
// ablates in §7.1 (giant lock, datapath-writer).
package state

import (
	"sync"
	"sync/atomic"

	"pepc/internal/gtp"
	"pepc/internal/pcef"
	"pepc/internal/pkt"
	"pepc/internal/qos"
)

// MaxBearers bounds the bearers per UE. LTE allows up to 11 EPS bearers
// (EBI 5..15); the in-memory context is sized for 4, covering the common
// default + dedicated-bearer sessions while keeping the per-user
// footprint small enough for the paper's 10M-device populations (a
// memory-sizing choice documented in DESIGN.md).
const MaxBearers = 4

// QCI is a QoS Class Identifier (3GPP 23.203).
type QCI uint8

// Standard QCIs used in tests and examples.
const (
	QCIConversationalVoice QCI = 1
	QCIConversationalVideo QCI = 2
	QCIIMSSignaling        QCI = 5
	QCIBestEffort          QCI = 9
)

// Bearer is the per-bearer QoS/policy state: a logical connection between
// the UE and the core with its own QoS class, rate bounds and traffic
// filter.
type Bearer struct {
	EBI uint8 // EPS bearer id, 5..15
	QCI QCI
	ARP uint8 // allocation/retention priority, 1..15

	// Rate bounds in bits/s; GBR only meaningful for GBR QCIs (1-4).
	MBRUplink   uint64
	MBRDownlink uint64
	GBRUplink   uint64
	GBRDownlink uint64

	// TFT is the traffic flow template mapping packets to this bearer.
	TFT pcef.FilterSpec
}

// ControlState is the per-user state written ONLY by the control thread
// (Table 1 rows: user location, user id, QoS/policy, data tunnel state).
// The data thread may read it (under read lock) but never writes it.
type ControlState struct {
	// User identifiers.
	IMSI   uint64
	GUTI   uint64 // temporary id used over the radio link instead of IMSI
	UEAddr uint32 // allocated UE IP (PAA)

	// User location.
	ECGI     uint32 // current cell identity
	TAI      uint16 // current tracking area
	TAIList  [8]uint16
	TAICount uint8

	// Per-user data tunnel state (S1-U).
	UplinkTEID   uint32 // TEID on which we receive from the eNodeB
	DownlinkTEID uint32 // eNodeB's TEID for downlink delivery
	ENBAddr      uint32 // eNodeB data-plane address

	// QoS/policy state.
	Bearers      [MaxBearers]Bearer
	BearerCount  uint8
	AMBRUplink   uint64 // aggregate maximum bit rate, bits/s
	AMBRDownlink uint64

	// PCEF charging rule ids installed by the PCRF via the proxy.
	RuleIDs   [4]uint32
	RuleCount uint8

	// Lifecycle.
	Attached   bool
	IoT        bool   // stateless-IoT customization eligible (§4.2)
	LastActive int64  // monotonic nanos of last data packet / event
	Epoch      uint32 // bumped on every control write; data path can detect staleness

	// Authentication context established at attach.
	KASME   [32]byte
	NextSQN uint64
}

// CounterState is the per-user state written ONLY by the data thread
// (Table 1 row: per-user bandwidth counters). The control thread reads it
// (under read lock) to report usage to the PCRF.
type CounterState struct {
	UplinkBytes     uint64
	DownlinkBytes   uint64
	UplinkPackets   uint64
	DownlinkPackets uint64
	DroppedPackets  uint64
	// Per-rule usage for charging, indexed like ControlState.RuleIDs.
	RuleBytes [4]uint64
}

// UE is the consolidated per-user state of a PEPC slice, split hot/cold
// for cache locality (DESIGN.md §4.10) inside one heap object: the cold
// half is the full ControlState plus its locks, the hot half an embedded
// HotUE holding the per-packet FastCtrl view, counters and data-private
// derived state. This mirrors Listing 1's HashMap<id, RwLock<UEContext>>
// with the single-writer split.
//
// Locking discipline (§3.2, extended with seqlock publication — see
// DESIGN.md §4.9):
//
//	control thread: ctrlMu.Lock + seq bump for writes to Ctrl (which
//	                republishes the hot FastCtrl view);
//	                Hot().ReadCounters to read counters
//	data thread:    Hot().ReadFast (wait-free seqlock copy, locked
//	                fallback) for per-packet control reads;
//	                ReadCtrlSnapshot for full-state reads;
//	                Hot().WriteCounters to write counters
//
// Use the accessor methods, which encode the discipline, rather than the
// locks directly.
//
// Field order places the hot half on a cache-line boundary (see HotUE's
// line map). A UE holds pointers and is over 512 bytes, so the Go
// allocator places it 8 bytes into a slot of the 896-byte size class,
// after a type header, and those slots start on line boundaries; Ctrl
// and ctrlMu fill the 440 bytes from there to the hot half.
type UE struct {
	Ctrl   ControlState
	ctrlMu sync.RWMutex

	hot HotUE

	// seq is the control-state sequence counter: odd while a control
	// write is in progress, even otherwise. Data-path readers copy Ctrl
	// optimistically and validate against it (ReadCtrlSnapshot), so a
	// control write never blocks the forwarding path.
	seq atomic.Uint32
}

// Hot returns the user's hot half.
func (u *UE) Hot() *HotUE { return &u.hot }

// DataPriv is the data-thread-private derived state; see HotUE.Priv.
// The limiter is inline, so policing a user loads no second object: its
// AMBR pair shares the hot half with the rest of the verdict stage's
// working set, and only the per-bearer MBR buckets, which few users
// configure, are allocated (by the first non-zero bearer MBR). An
// unpoliced user's limiter is the zero value, which polices nothing.
// TFTs are cached here at rebuild so bearer classification for policed
// users stays inside the hot half. Field order is part of HotUE's line
// map.
type DataPriv struct {
	// Epoch records which control-state epoch the derived state was
	// built from; a mismatch tells the data thread to rebuild.
	Epoch uint32
	// NTFT counts the cached bearer TFTs below.
	NTFT    uint8
	Limiter qos.UserLimiter
	// Encap is the precomputed downlink GTP-U envelope for the user's
	// current tunnel (DownlinkTEID/ENBAddr), rebuilt on the same epoch
	// bump: downlink encapsulation becomes one template copy plus three
	// length stores instead of field-by-field serialization.
	Encap gtp.EncapTemplate
	// Cached dedicated-bearer TFTs (indexes 1..NTFT-1 of Bearers; slot 0
	// unused) copied from the control state at rebuild.
	TFTs [MaxBearers]pcef.FilterSpec
}

// SelectBearer maps a flow to a bearer index using the cached TFTs,
// mirroring ControlState.SelectBearer without touching cold state.
func (p *DataPriv) SelectBearer(f pkt.Flow) int {
	for i := 1; i < int(p.NTFT); i++ {
		if p.TFTs[i].MatchFlow(f) {
			return i
		}
	}
	if p.NTFT == 0 {
		return -1
	}
	return 0
}

// WriteCtrl runs fn with exclusive access to the control half. Only the
// control thread may call it. The sequence counter is odd for the
// duration of the write, so concurrent ReadCtrlSnapshot callers either
// retry or fall back to the lock; the mutex still serializes against
// the locked readers (Snapshot, ReadCtrl, migration extract).
func (u *UE) WriteCtrl(fn func(*ControlState)) {
	u.ctrlMu.Lock()
	u.seq.Add(1) // odd: write in progress
	fn(&u.Ctrl)
	u.Ctrl.Epoch++
	u.seq.Add(1) // even: write published
	u.publishFast()
	u.ctrlMu.Unlock()
}

// publishFast re-derives and publishes the hot FastCtrl view. Caller
// holds the control write lock.
func (u *UE) publishFast() {
	var f FastCtrl
	u.Ctrl.fastView(&f)
	if u.hot.U == nil {
		// First publish: bind the back-pointer (written once, before the
		// user is indexed, so data-thread readers never race it).
		u.hot.U = u
	}
	u.hot.publish(&f)
}

// ReadCtrl runs fn with shared access to the control half. Control-
// thread paths that need a stable view across the whole callback
// (migration, snapshots, usage reporting) use this locked form; the
// data thread uses ReadCtrlSnapshot instead.
func (u *UE) ReadCtrl(fn func(*ControlState)) {
	u.ctrlMu.RLock()
	fn(&u.Ctrl)
	u.ctrlMu.RUnlock()
}

// seqlockRetries bounds the optimistic read loop before falling back to
// the read lock: a handful of retries rides out one in-flight control
// write; a storm of back-to-back writes to the same user (rare — one
// user's signaling is serialized) degrades to the locked path.
const seqlockRetries = 8

// ReadCtrlSnapshot copies the control half into dst without blocking
// the writer: it reads the sequence counter, copies, and validates that
// no write began or completed in between, retrying a bounded number of
// times before falling back to the read lock. The copy is torn-read
// safe because ControlState is pointer-free; a torn copy fails
// validation and is discarded. Race-detector builds always take the
// lock (the optimistic copy is a deliberate validated race the detector
// cannot see past).
//
// This is the data thread's control read: wait-free in the common case,
// so a signaling burst never stalls packet verdicts the way a held
// write lock would.
func (u *UE) ReadCtrlSnapshot(dst *ControlState) {
	if !raceEnabled {
		for try := 0; try < seqlockRetries; try++ {
			s1 := u.seq.Load()
			if s1&1 == 0 {
				*dst = u.Ctrl
				if u.seq.Load() == s1 {
					return
				}
			}
		}
	}
	u.ctrlMu.RLock()
	*dst = u.Ctrl
	u.ctrlMu.RUnlock()
}

// CtrlSeq exposes the current sequence value (even = quiescent); tests
// assert the protocol's parity invariants through it.
func (u *UE) CtrlSeq() uint32 { return u.seq.Load() }

// WriteCounters runs fn with exclusive access to the counter half. Only
// the data thread may call it. (Convenience delegate to the hot half.)
func (u *UE) WriteCounters(fn func(*CounterState)) { u.Hot().WriteCounters(fn) }

// ReadCounters runs fn with exclusive access to the counter half (control
// thread, for usage reporting).
func (u *UE) ReadCounters(fn func(*CounterState)) { u.Hot().ReadCounters(fn) }

// Snapshot copies both halves consistently for migration or debugging.
func (u *UE) Snapshot() (ControlState, CounterState) {
	u.ctrlMu.RLock()
	cs := u.Ctrl
	u.ctrlMu.RUnlock()
	h := u.Hot()
	h.cmu.Lock()
	cnt := h.Counters
	h.cmu.Unlock()
	return cs, cnt
}

// Restore installs a snapshot into a fresh UE (migration target side).
// The write follows the seqlock protocol: the target slice's data
// thread may already be probing the context through a stale index.
func (u *UE) Restore(cs ControlState, cnt CounterState) {
	u.ctrlMu.Lock()
	u.seq.Add(1)
	u.Ctrl = cs
	u.seq.Add(1)
	u.publishFast()
	u.ctrlMu.Unlock()
	h := u.Hot()
	h.cmu.Lock()
	h.Counters = cnt
	h.cmu.Unlock()
}

// Recycle clears the context for reuse from a free list (the control
// plane's zero-alloc attach path). Callers must guarantee the data
// thread holds no reference — in PEPC that means the detach's index
// delete has been synced through the update queue (the control plane's
// retire fence). Field-by-field reset keeps the mutexes (both unlocked
// here by contract) untouched. The hot half is reset too, keeping its
// back-pointer.
func (u *UE) Recycle() {
	u.Ctrl = ControlState{}
	u.hot.reset()
	u.seq.Store(0)
}

// AddBearer appends a bearer, returning false when the UE already has
// MaxBearers. Caller must hold the control write lock (i.e. call inside
// WriteCtrl).
func (c *ControlState) AddBearer(b Bearer) bool {
	if c.BearerCount >= MaxBearers {
		return false
	}
	c.Bearers[c.BearerCount] = b
	c.BearerCount++
	return true
}

// DefaultBearer returns the default (first) bearer, which every attached
// UE has.
func (c *ControlState) DefaultBearer() *Bearer {
	if c.BearerCount == 0 {
		return nil
	}
	return &c.Bearers[0]
}

// SelectBearer maps a packet flow to a bearer index using the Traffic
// Flow Templates (the classifier role the per-user QoS state serves,
// §3.1: "the per user state on the data plane functions serves this
// purpose of mapping incoming traffic to a QoS class"). Dedicated
// bearers (index ≥ 1) are checked in order; the default bearer (index 0)
// is the fallback. Callers hold the control read lock.
func (c *ControlState) SelectBearer(f pkt.Flow) int {
	for i := 1; i < int(c.BearerCount); i++ {
		if c.Bearers[i].TFT.MatchFlow(f) {
			return i
		}
	}
	if c.BearerCount == 0 {
		return -1
	}
	return 0
}
