package state

import (
	"sync"
	"sync/atomic"
)

// FastCtrl is the per-packet subset of ControlState: the handful of
// fields the data plane's verdict stage actually reads for every run.
// It is pointer-free and half a cache line, so the forwarding path can
// snapshot it with one short seqlock copy instead of copying the
// ~400-byte full control state. It is derived (published) from
// ControlState on every control write; the full state stays on the
// cold UE for signaling, migration and policed-user rebuilds.
type FastCtrl struct {
	DownlinkTEID uint32
	ENBAddr      uint32
	Epoch        uint32
	RuleIDs      [4]uint32
	RuleCount    uint8
	// Policed is precomputed from AMBR/MBR configuration so the data
	// thread can skip the limiter rebuild's cold-state read entirely for
	// unpoliced users (the common case at population scale).
	Policed bool
}

// fastView derives the published fast-path view. Caller holds the
// control write lock.
func (c *ControlState) fastView(f *FastCtrl) {
	f.DownlinkTEID = c.DownlinkTEID
	f.ENBAddr = c.ENBAddr
	f.Epoch = c.Epoch
	f.RuleIDs = c.RuleIDs
	f.RuleCount = c.RuleCount
	f.Policed = c.policed()
}

// policed reports whether any rate bound is configured; mirrors the
// limiter-rebuild condition in the data plane.
func (c *ControlState) policed() bool {
	if c.AMBRUplink != 0 || c.AMBRDownlink != 0 {
		return true
	}
	for i := 0; i < int(c.BearerCount); i++ {
		b := &c.Bearers[i]
		if b.MBRUplink != 0 || b.MBRDownlink != 0 {
			return true
		}
	}
	return false
}

// HotUE is the per-user state the data plane touches per packet: the
// fast-path control view behind its own small seqlock, the data-written
// counters, and the data-thread-private derived state. Every UE embeds
// one (UE.Hot).
//
// Single-writer split, as on the cold half: the control thread writes
// Fast (via publish) and reads Counters; the data thread reads Fast
// (ReadFast) and writes Counters; Priv is data-thread-private.
//
// Field order is the cache-line map of DESIGN.md §4 decision 10. The
// hot half starts on a line boundary (see UE), so its lines are
// (TestHotLayout pins them)
//
//	line 0:  U, cmu (a Mutex and 16 bytes of padding), the forward
//	         counters (bytes and packets)
//	line 1:  DroppedPackets, RuleBytes, fmu
//	line 2:  seq, Fast, Priv.Epoch, Priv.NTFT, the limiter's configured
//	         bit and bearer-bucket pointer
//	line 3:  the limiter's AMBR pair
//	line 4+: Priv.Encap, Priv.TFTs
//
// and touch loads lines 0, 2 and 3, and line 4 (the encap template) for
// downlink runs.
type HotUE struct {
	// U points back at the owning cold context, for the rare fast-path
	// escapes (policed-user rebuilds, paging parks).
	// Set on the first publish and never cleared, so in-flight data-path
	// references never observe nil.
	U *UE

	// cmu guards Counters: the data thread writes them once per run and
	// only rare control-side snapshots read them, so a Mutex (two
	// atomics per run, not an RWMutex's four) serves both.
	cmu      sync.Mutex
	_        [16]byte // pads cmu to the 24 B the line map was measured with
	Counters CounterState

	// fmu serializes publishers and backs the race-build fallback for
	// ReadFast (the optimistic copy is a deliberate validated race).
	fmu sync.RWMutex

	// seq is the fast-view sequence counter: odd while a publish is in
	// progress, even otherwise (same protocol as UE.seq).
	seq  atomic.Uint32
	Fast FastCtrl

	// Priv is data-thread-private derived state (see DataPriv): no lock.
	Priv DataPriv
}

// touch loads the hot lines the verdict stage reads or writes for a run
// in this direction (see the line map on HotUE), so that a batched
// lookup overlaps their cache misses across a chunk instead of the
// verdict stage taking them one run at a time. It reads only the seq
// word, the write-once U (line 0's stand-in: Restore writes the
// counters from the control thread) and data-thread-private fields;
// Fast is read only through ReadFast. The result means nothing: the
// caller keeps it so the compiler keeps the loads.
func (h *HotUE) touch(uplink bool) uint32 {
	v := h.seq.Load() + uint32(h.Priv.Limiter.AMBRUp.Rate())
	if h.U != nil {
		v++
	}
	if !uplink {
		v += h.Priv.Encap.TEID()
	}
	return v
}

// ReadFast copies the fast-path control view into dst without blocking
// the publisher: optimistic copy-and-validate with a bounded retry,
// then a locked fallback — the same protocol as UE.ReadCtrlSnapshot
// but over 32 bytes instead of the whole control state.
func (h *HotUE) ReadFast(dst *FastCtrl) {
	if !raceEnabled {
		for try := 0; try < seqlockRetries; try++ {
			s1 := h.seq.Load()
			if s1&1 == 0 {
				*dst = h.Fast
				if h.seq.Load() == s1 {
					return
				}
			}
		}
	}
	h.fmu.RLock()
	*dst = h.Fast
	h.fmu.RUnlock()
}

// publish installs a new fast view under the seqlock protocol. Control
// thread only (called from the UE control-write path).
func (h *HotUE) publish(f *FastCtrl) {
	h.fmu.Lock()
	h.seq.Add(1)
	h.Fast = *f
	h.seq.Add(1)
	h.fmu.Unlock()
}

// WriteCounters runs fn with exclusive access to the counters (data
// thread only).
func (h *HotUE) WriteCounters(fn func(*CounterState)) {
	h.cmu.Lock()
	fn(&h.Counters)
	h.cmu.Unlock()
}

// ReadCounters runs fn with exclusive access to the counters (control
// thread, usage reporting).
func (h *HotUE) ReadCounters(fn func(*CounterState)) {
	h.cmu.Lock()
	fn(&h.Counters)
	h.cmu.Unlock()
}

// reset clears the occupant-specific hot state for reuse. Same caller
// contract as UE.Recycle: the retire fence guarantees no data-thread
// reference is live.
func (h *HotUE) reset() {
	h.Fast = FastCtrl{}
	h.Counters = CounterState{}
	h.Priv = DataPriv{}
	h.seq.Store(0)
}
