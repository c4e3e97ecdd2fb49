package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pepc/internal/charging"
	"pepc/internal/pcef"
	"pepc/internal/qos"
	"pepc/internal/ring"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// ControlPlane is the slice's control thread: it terminates signaling
// (attach, handover, detach), owns every write to per-user control state,
// manages primary/secondary table residency, talks to the HSS/PCRF
// through the node proxy, and services state-migration requests.
//
// The control thread is whoever holds mu. Call the methods from one
// goroutine (tests, figures and in-process rigs drive a slice that way),
// or through exec from any number of them: the node's entries, the S1AP
// associations and the N4 loop all do, so each slice has one control
// writer at a time however many producers share it. The data thread
// never takes mu.
type ControlPlane struct {
	s *Slice

	// mu serializes the slice's control writers; see exec.
	mu sync.Mutex

	// Identifier allocation (HomeTEID, HomeUEAddr).
	nextSeq uint32
	iotSeq  uint32

	// proxy reaches HSS/PCRF; nil means synthetic mode (the paper's
	// at-scale control experiments generate state operations without
	// wire messages, §5.1).
	proxy *Proxy

	// promoteQ carries promotion requests from the data thread
	// (secondary-table hits) back to the control thread.
	promoteQ *ring.MPSC[promoteReq]

	collector *charging.Collector

	// retired is the UE-context free list (control-thread-only): detached
	// contexts parked until the data plane provably holds no reference,
	// then recycled by the next attach, an allocator attach together with
	// their TEID/address pair. Recycling the identifiers matters as much as the memory: it
	// keeps the allocator's sequence space from draining under churn and
	// lets the index maps reuse tombstoned slots instead of growing.
	// Ring buffer: retHead is the oldest entry, retLen the population.
	retired []retiree
	retHead int
	retLen  int

	// sigQ is the signaling event ring: producers (workload generators,
	// the N4 loop) enqueue procedure requests, the control thread drains
	// them in batches (DrainSignaling). sigScratch/sigUEs/sigIMSIs/
	// updScratch are the drain's preallocated working set
	// (control-thread-only).
	sigQ       *ring.MPSC[SigEvent]
	sigScratch []SigEvent
	sigUEs     []*state.UE
	sigIMSIs   []uint64
	updScratch []state.Update

	// ruleScratch receives PCRF rule installs during attach, reused
	// across procedures so rule parsing never allocates in steady state.
	ruleScratch []pcef.Rule

	// degraded is the control thread's repair backlog: users attached
	// with the default-bearer-only profile while the PCRF was dark (Gx
	// establish failed). Maintain retries their Gx session once the
	// proxy's Gx breaker reports the backend back. Control-thread-only.
	degraded []uint64

	// Event counters.
	Attaches   atomic.Uint64
	Handovers  atomic.Uint64
	Detaches   atomic.Uint64
	QoSUpdates atomic.Uint64
	Promotions atomic.Uint64
	Evictions  atomic.Uint64
	// PromoteDrops counts promotion requests discarded because promoteQ
	// was full (the device stays in the secondary until a later hit).
	PromoteDrops atomic.Uint64
	// SigDrops counts signaling events rejected because sigQ was full
	// (the control plane's backpressure toward the RAN).
	SigDrops atomic.Uint64
	// UpdateDrops counts index updates shed because the update queue was
	// full and no data thread was bound to wait for.
	UpdateDrops atomic.Uint64
	// Recycles counts attaches served from the context free list.
	Recycles atomic.Uint64
	// DegradedAttaches counts attaches completed with the default-bearer
	// profile because the PCRF was unreachable.
	DegradedAttaches atomic.Uint64
	// Repairs counts degraded users whose Gx session was later
	// re-established by the control thread.
	Repairs atomic.Uint64
	// RepairDrops counts degraded users dropped from the (bounded)
	// repair backlog; they keep the default-bearer profile.
	RepairDrops atomic.Uint64
}

type promoteReq struct {
	ue *state.UE
}

// retiree is a parked UE context awaiting recycling. seq records the
// data plane's sync counter at retire time; the context is eligible for
// reuse once two further syncs completed (same fence as migration
// extract: the delete has been applied and every batch that could still
// hold the pointer has finished).
type retiree struct {
	ue     *state.UE
	teid   uint32
	ueAddr uint32
	seq    uint64
}

// freeListCap bounds the context free list; beyond it, detached
// contexts fall to the garbage collector as before.
const freeListCap = 1 << 12

// sigRingCap sizes the signaling event ring.
const sigRingCap = 1 << 12

// sigDrainBatch is DrainSignaling's default (and maximum) batch size.
const sigDrainBatch = 256

// degradedCap bounds the repair backlog; beyond it, degraded users keep
// the default-bearer profile permanently (counted in RepairDrops).
const degradedCap = 1 << 14

// repairBatch bounds how many degraded users one Maintain round repairs,
// so repair traffic never monopolizes the control thread.
const repairBatch = 64

func newControlPlane(s *Slice) *ControlPlane {
	return &ControlPlane{
		s:          s,
		promoteQ:   ring.MustMPSC[promoteReq](1 << 12),
		collector:  charging.NewCollector(),
		sigQ:       ring.MustMPSC[SigEvent](sigRingCap),
		sigScratch: make([]SigEvent, sigDrainBatch),
		sigUEs:     make([]*state.UE, sigDrainBatch),
		sigIMSIs:   make([]uint64, sigDrainBatch),
		updScratch: make([]state.Update, 0, sigDrainBatch),
	}
}

// CtrlStats is a snapshot of the control plane's event counters.
type CtrlStats struct {
	Attaches         uint64
	Handovers        uint64
	Detaches         uint64
	QoSUpdates       uint64
	Promotions       uint64
	PromoteDrops     uint64
	Evictions        uint64
	SigDrops         uint64
	UpdateDrops      uint64
	Recycles         uint64
	DegradedAttaches uint64
	Repairs          uint64
	RepairDrops      uint64
}

// Stats snapshots the control plane's counters (any thread).
func (cp *ControlPlane) Stats() CtrlStats {
	return CtrlStats{
		Attaches:         cp.Attaches.Load(),
		Handovers:        cp.Handovers.Load(),
		Detaches:         cp.Detaches.Load(),
		QoSUpdates:       cp.QoSUpdates.Load(),
		Promotions:       cp.Promotions.Load(),
		PromoteDrops:     cp.PromoteDrops.Load(),
		Evictions:        cp.Evictions.Load(),
		SigDrops:         cp.SigDrops.Load(),
		UpdateDrops:      cp.UpdateDrops.Load(),
		Recycles:         cp.Recycles.Load(),
		DegradedAttaches: cp.DegradedAttaches.Load(),
		Repairs:          cp.Repairs.Load(),
		RepairDrops:      cp.RepairDrops.Load(),
	}
}

// SetProxy attaches the node proxy (full signaling mode). Without a
// proxy, Attach runs the synthetic state-operation path.
func (cp *ControlPlane) SetProxy(p *Proxy) { cp.proxy = p }

// Collector returns the charging collector.
func (cp *ControlPlane) Collector() *charging.Collector { return cp.collector }

// AttachSpec carries the parameters of an attach procedure.
type AttachSpec struct {
	IMSI uint64
	// ENBAddr/DownlinkTEID identify the serving eNodeB's data endpoint.
	ENBAddr      uint32
	DownlinkTEID uint32
	ECGI         uint32
	TAI          uint16
	// QoS profile; zero values mean unpoliced.
	AMBRUplink   uint64
	AMBRDownlink uint64
	QCI          uint8
	// AssignedUplinkTEID/AssignedUEAddr, when both nonzero, bypass the
	// slice's identifier allocator: the caller owns the identifier space
	// and has derived the pair itself (the cluster layer embeds its
	// global user key in both, so the Maglev steering key is recoverable
	// from either identifier on the wire). Only the context may come from
	// the free list, never a parked identifier pair, and uniqueness
	// across attaches is the caller's contract. Setting
	// only one of the two is an error (ErrBadAssignment).
	AssignedUplinkTEID uint32
	AssignedUEAddr     uint32
	// Preauthorized marks a user whose authentication and policy
	// decisions already happened on a separate control plane (the CUPS
	// split: an SMF drives this slice as a pure user-plane function over
	// N4 and is itself the authority on subscription state). The
	// HSS/PCRF proxy round-trips are skipped; QoS comes entirely from
	// the spec.
	Preauthorized bool
}

// AttachResult reports the identifiers the network assigned.
type AttachResult struct {
	UplinkTEID uint32 // where the eNodeB must send uplink GTP-U
	UEAddr     uint32 // the UE's allocated IP
	GUTI       uint64
}

// Attach executes the attach procedure for a user: authenticate (when a
// proxy is attached), allocate identifiers, build the consolidated
// control state, insert it into the control-plane store, and notify the
// data plane through the batched update queue — the PEPC flow of §3.4.
func (cp *ControlPlane) Attach(spec AttachSpec) (AttachResult, error) {
	var res AttachResult
	if cp.s.cp.LookupIMSI(spec.IMSI) != nil {
		return res, ErrUserExists
	}
	var kasme [32]byte
	if cp.proxy != nil && !spec.Preauthorized {
		vec, err := cp.proxy.Authenticate(spec.IMSI)
		if err != nil {
			return res, err
		}
		kasme = vec.KASME
		up, down, err := cp.proxy.UpdateLocation(spec.IMSI)
		if err != nil {
			return res, err
		}
		if spec.AMBRUplink == 0 {
			spec.AMBRUplink = up
		}
		if spec.AMBRDownlink == 0 {
			spec.AMBRDownlink = down
		}
	}

	assigned := spec.AssignedUplinkTEID != 0 || spec.AssignedUEAddr != 0
	if assigned && (spec.AssignedUplinkTEID == 0 || spec.AssignedUEAddr == 0) {
		return res, ErrBadAssignment
	}
	ue, teid, ueAddr, err := cp.allocUE(assigned)
	if err != nil {
		return res, err
	}
	if assigned {
		teid, ueAddr = spec.AssignedUplinkTEID, spec.AssignedUEAddr
	}
	guti := spec.IMSI ^ 0x00ff_feed_0000_0000

	ue.WriteCtrl(func(c *state.ControlState) {
		c.IMSI = spec.IMSI
		c.GUTI = guti
		c.UEAddr = ueAddr
		c.ECGI = spec.ECGI
		c.TAI = spec.TAI
		c.TAIList[0] = spec.TAI
		c.TAICount = 1
		c.UplinkTEID = teid
		c.DownlinkTEID = spec.DownlinkTEID
		c.ENBAddr = spec.ENBAddr
		c.AMBRUplink = spec.AMBRUplink
		c.AMBRDownlink = spec.AMBRDownlink
		qci := spec.QCI
		if qci == 0 {
			qci = 9
		}
		c.AddBearer(state.Bearer{EBI: 5, QCI: state.QCI(qci)})
		c.Attached = true
		c.LastActive = sim.Now()
		c.KASME = kasme
	})

	if cp.proxy != nil && !spec.Preauthorized {
		rules, err := cp.proxy.EstablishGxSessionInto(spec.IMSI, cp.ruleScratch[:0])
		if err != nil {
			// Graceful degradation: a dark PCRF must not fail the attach
			// (the paper's availability argument cuts both ways — a slice
			// that refuses service during a backend outage is a worse
			// outage). The user proceeds on the default bearer installed
			// above, with no PCC rules; the control thread re-establishes
			// the Gx session from the repair backlog once the backend
			// answers again.
			cp.markDegraded(spec.IMSI)
		} else {
			cp.ruleScratch = rules[:0]
			cp.installRules(ue, rules)
		}
	}

	if err := cp.s.cp.Insert(ue); err != nil {
		return res, err
	}
	cp.notifyInsert(teid, ueAddr, ue)
	cp.Attaches.Add(1)
	res = AttachResult{UplinkTEID: teid, UEAddr: ueAddr, GUTI: guti}
	return res, nil
}

// markDegraded records a user attached without its PCC rules for later
// repair. Control thread only.
func (cp *ControlPlane) markDegraded(imsi uint64) {
	cp.DegradedAttaches.Add(1)
	if len(cp.degraded) >= degradedCap {
		cp.RepairDrops.Add(1)
		return
	}
	cp.degraded = append(cp.degraded, imsi)
}

// DegradedBacklog returns the number of users awaiting Gx repair.
func (cp *ControlPlane) DegradedBacklog() int { return len(cp.degraded) }

// RepairDegraded retries the Gx establishment of up to max degraded
// users (all of them when max <= 0). It stops early when the backend is
// still failing, leaving the remainder queued for the next round.
// Returns the number repaired. Control thread only.
func (cp *ControlPlane) RepairDegraded(max int) int {
	if cp.proxy == nil || len(cp.degraded) == 0 {
		return 0
	}
	if !cp.proxy.GxAvailable() {
		return 0 // breaker still open: don't waste a probe per user
	}
	if max <= 0 || max > len(cp.degraded) {
		max = len(cp.degraded)
	}
	repaired := 0
	i := 0
	for ; i < max; i++ {
		imsi := cp.degraded[i]
		ue := cp.s.cp.LookupIMSI(imsi)
		if ue == nil {
			continue // detached meanwhile: nothing to repair
		}
		rules, err := cp.proxy.EstablishGxSessionInto(imsi, cp.ruleScratch[:0])
		if err != nil {
			// Backend still failing: stop, keep this and the rest queued.
			break
		}
		cp.ruleScratch = rules[:0]
		cp.installRules(ue, rules)
		cp.Repairs.Add(1)
		repaired++
	}
	// Drop the processed prefix; an early break keeps the user that
	// failed (cp.degraded[i]) at the head for the next round.
	if i > 0 {
		n := copy(cp.degraded, cp.degraded[i:])
		cp.degraded = cp.degraded[:n]
	}
	return repaired
}

// allocUE produces a context for an attach, with an identifier pair
// unless the caller assigned one: from the free list when the oldest
// retiree has cleared the data-plane fence (zero-alloc steady state),
// from the heap and the sequence allocator otherwise. An assigned attach
// takes only the context, and skips a retiree whose pair this slice's
// allocator issued, leaving it to an allocator attach so no issued pair
// is lost.
func (cp *ControlPlane) allocUE(assigned bool) (*state.UE, uint32, uint32, error) {
	if cp.retLen > 0 {
		r := cp.retired[cp.retHead]
		seq := r.teid & seqMask
		issued := seq != 0 && seq <= cp.nextSeq && r.teid == HomeTEID(cp.s.cfg.ID, seq) && r.ueAddr == HomeUEAddr(cp.s.cfg.ID, seq)
		if cp.s.data.syncSeq.Load() >= r.seq+2 && !(assigned && issued) {
			cp.retired[cp.retHead] = retiree{}
			cp.retHead = (cp.retHead + 1) & (len(cp.retired) - 1)
			cp.retLen--
			r.ue.Recycle()
			cp.Recycles.Add(1)
			return r.ue, r.teid, r.ueAddr, nil
		}
	}
	if assigned {
		return &state.UE{}, 0, 0, nil
	}
	teid, ueAddr, err := cp.allocate()
	if err != nil {
		return nil, 0, 0, err
	}
	return &state.UE{}, teid, ueAddr, nil
}

// retire parks a detached context on the free list, stamped with the
// current data-plane sync sequence. A full list simply drops the entry
// to the garbage collector.
func (cp *ControlPlane) retire(ue *state.UE, teid, ueAddr uint32) {
	if cp.retired == nil {
		cp.retired = make([]retiree, freeListCap)
	}
	if cp.retLen == len(cp.retired) {
		return
	}
	slot := (cp.retHead + cp.retLen) & (len(cp.retired) - 1)
	cp.retired[slot] = retiree{ue: ue, teid: teid, ueAddr: ueAddr, seq: cp.s.data.syncSeq.Load()}
	cp.retLen++
}

// Identifier scheme: a slice's identifiers carry its ID in the top byte
// — TEID prefix ID+16, UE-address prefix ID+10 — above a 24-bit
// sequence. The prefix names the user's home slice, which is all the
// node demux reads to steer it, and keeps a slice's TEIDs and addresses
// disjoint (the two-level table shares one key space). Above MaxSliceID
// a TEID prefix would reach the IoT pool's 0xE0–0xEF range, then wrap.
const (
	teidPrefix = 16
	addrPrefix = 10
	seqMask    = 1<<24 - 1
	// MaxSliceID is the largest ID a slice may carry.
	MaxSliceID = 0xE0 - teidPrefix - 1
)

// HomeTEID is the uplink TEID slice sliceID assigns to sequence seq.
func HomeTEID(sliceID int, seq uint32) uint32 {
	return uint32(sliceID+teidPrefix)<<24 | seq&seqMask
}

// HomeUEAddr is the UE address slice sliceID assigns to sequence seq.
func HomeUEAddr(sliceID int, seq uint32) uint32 {
	return uint32(sliceID+addrPrefix)<<24 | seq&seqMask
}

// allocate hands out the next uplink TEID and UE address.
func (cp *ControlPlane) allocate() (teid, ueAddr uint32, err error) {
	cp.nextSeq++
	seq := cp.nextSeq
	if seq > seqMask {
		return 0, 0, ErrPoolExhausted
	}
	return HomeTEID(cp.s.cfg.ID, seq), HomeUEAddr(cp.s.cfg.ID, seq), nil
}

// notifyInsert pushes the data-plane index updates for a new/restored
// user: in two-level mode the user lands in the secondary table
// immediately (control-side insert) and is promoted on first use or here
// proactively for an active attach.
func (cp *ControlPlane) notifyInsert(teid, ueAddr uint32, ue *state.UE) {
	if cp.s.tl != nil {
		cp.s.tl.InsertSecondary(teid, ueAddr, ue)
		// A freshly attached device is active: promote now.
		cp.s.pushUpdates(state.Update{Op: state.OpInsert, TEID: teid, UEIP: ueAddr, UE: ue})
		return
	}
	cp.s.pushUpdates(state.Update{Op: state.OpInsert, TEID: teid, UEIP: ueAddr, UE: ue})
}

// ueKeys reads a user's data keys: its uplink TEID and UE address.
func ueKeys(ue *state.UE) (teid, ueAddr uint32) {
	ue.ReadCtrl(func(c *state.ControlState) { teid, ueAddr = c.UplinkTEID, c.UEAddr })
	return teid, ueAddr
}

func (cp *ControlPlane) notifyDelete(teid, ueAddr uint32) {
	if cp.s.tl != nil {
		cp.s.tl.RemoveSecondary(teid, ueAddr)
	}
	cp.s.pushUpdates(state.Update{Op: state.OpDelete, TEID: teid, UEIP: ueAddr})
}

// installRules installs PCC rules into the slice PCEF and records their
// ids in the user's control state for per-rule charging.
func (cp *ControlPlane) installRules(ue *state.UE, rules []pcef.Rule) {
	for _, r := range rules {
		// Rules are slice-scoped; re-installation of a shared rule id is
		// fine.
		_ = cp.s.pcefTable.Install(r)
	}
	ue.WriteCtrl(func(c *state.ControlState) {
		for _, r := range rules {
			if c.RuleCount < uint8(len(c.RuleIDs)) {
				c.RuleIDs[c.RuleCount] = r.ID
				c.RuleCount++
			}
		}
	})
}

// AttachEvent applies the state work of an attach signaling event to an
// already-attached user — the paper's at-scale synthetic workload ("when
// a attach event is received, the user device creates the appropriate
// user device state, and adds it to state table", §5.1, uniformly
// distributed over existing devices): the control thread rewrites the
// user's QoS/policy and tunnel state and (re)notifies the data plane.
func (cp *ControlPlane) AttachEvent(imsi uint64) error {
	return cp.apply(SigEvent{Kind: SigAttachEvent, IMSI: imsi})
}

// S1Handover applies an S1-based handover (paper §4.2: "S1-based
// handovers require modification of specific elements of the user state,
// specifically eNodeB tunnel identifier ... and the IP address of the
// new base-station"). Only control state changes; the data plane reads
// the new tunnel on its next packet.
func (cp *ControlPlane) S1Handover(imsi uint64, newENBAddr, newDownlinkTEID, newECGI uint32) error {
	return cp.apply(SigEvent{Kind: SigS1Handover, IMSI: imsi,
		ENBAddr: newENBAddr, DownlinkTEID: newDownlinkTEID, ECGI: newECGI})
}

// Detach removes a user entirely.
func (cp *ControlPlane) Detach(imsi uint64) error {
	return cp.apply(SigEvent{Kind: SigDetach, IMSI: imsi})
}

// AllocateIoT hands out a TEID/address pair from the stateless-IoT pool
// (§4.2): no per-user state is created; the pool membership itself
// encodes the service class.
func (cp *ControlPlane) AllocateIoT() (teid uint32, ok bool) {
	if cp.s.cfg.IoTTEIDCount == 0 || cp.iotSeq >= cp.s.cfg.IoTTEIDCount {
		return 0, false
	}
	teid = cp.s.cfg.IoTTEIDBase + cp.iotSeq
	cp.iotSeq++
	return teid, true
}

// Lookup returns a user's state by IMSI (diagnostics, migration).
func (cp *ControlPlane) Lookup(imsi uint64) *state.UE {
	return cp.s.cp.LookupIMSI(imsi)
}

// CollectUsage closes the user's charging interval and, when a proxy is
// attached, reports usage to the PCRF.
func (cp *ControlPlane) CollectUsage(imsi uint64, now int64) (charging.CDR, error) {
	ue := cp.s.cp.LookupIMSI(imsi)
	if ue == nil {
		return charging.CDR{}, ErrUserUnknown
	}
	cdr, busy := cp.collector.Collect(ue, imsi, now)
	if busy && cp.proxy != nil {
		_ = cp.proxy.ReportUsage(imsi, cdr.Delta.Total())
	}
	return cdr, nil
}

// Promote forces a device's state into the primary table (two-level
// mode): the control thread resolves the keys and queues the insert for
// the data thread. No-op in single-table mode.
func (cp *ControlPlane) Promote(imsi uint64) error {
	if cp.s.tl == nil {
		return nil
	}
	ue := cp.s.cp.LookupIMSI(imsi)
	if ue == nil {
		return ErrUserUnknown
	}
	teid, ueAddr := ueKeys(ue)
	cp.s.pushUpdates(state.Update{Op: state.OpInsert, TEID: teid, UEIP: ueAddr, UE: ue})
	cp.Promotions.Add(1)
	return nil
}

// Demote evicts a device's state from the primary table; it remains in
// the secondary (idle device, §3.2). No-op in single-table mode.
func (cp *ControlPlane) Demote(imsi uint64) error {
	if cp.s.tl == nil {
		return nil
	}
	ue := cp.s.cp.LookupIMSI(imsi)
	if ue == nil {
		return ErrUserUnknown
	}
	teid, ueAddr := ueKeys(ue)
	cp.s.pushUpdates(state.Update{Op: state.OpDelete, TEID: teid, UEIP: ueAddr})
	cp.Evictions.Add(1)
	return nil
}

// requestPromotion is called by the data thread on a secondary-table hit.
func (cp *ControlPlane) requestPromotion(ue *state.UE) {
	// Best effort: a full queue just means the promotion happens on a
	// later miss — but count the drop so a sustained promotion backlog
	// is visible in the slice stats instead of silent.
	if !cp.promoteQ.Enqueue(promoteReq{ue: ue}) {
		cp.PromoteDrops.Add(1)
	}
}

// Maintain performs one round of control-thread housekeeping: drains
// promotion requests into data-plane updates and evicts idle users from
// the primary table. Returns the number of actions taken. Call it
// periodically as the control thread.
func (cp *ControlPlane) Maintain(now, idleNs int64) int {
	actions := 0
	for {
		req, ok := cp.promoteQ.Dequeue()
		if !ok {
			break
		}
		teid, ueAddr := ueKeys(req.ue)
		cp.s.pushUpdates(state.Update{Op: state.OpInsert, TEID: teid, UEIP: ueAddr, UE: req.ue})
		cp.Promotions.Add(1)
		actions++
	}
	if cp.s.tl != nil && idleNs > 0 {
		n := cp.s.tl.EvictIdle(now, idleNs, func(teid, ip uint32) {
			cp.s.pushUpdates(state.Update{Op: state.OpDelete, TEID: teid, UEIP: ip})
			cp.Evictions.Add(1)
		})
		actions += n
	}
	actions += cp.RepairDegraded(repairBatch)
	return actions
}

// extract snapshots a user and removes it from the slice (migration
// source side). The data plane stops finding the user after its next
// update sync; the node scheduler buffers in-flight packets meanwhile.
// The returned QoSLevels carry the policing budget (token-bucket fill)
// the user had accrued, captured from the data-private limiter once the
// fence proves the data thread is done with it.
func (cp *ControlPlane) extract(imsi uint64) (state.ControlState, state.CounterState, state.QoSLevels, error) {
	var lv state.QoSLevels
	ue, err := cp.s.cp.Remove(imsi)
	if err != nil {
		return state.ControlState{}, state.CounterState{}, lv, ErrUserUnknown
	}
	cp.notifyDelete(ueKeys(ue))
	// Fence: wait until the data thread has completed two sync cycles
	// after the delete was queued. Syncs run between batches, so after
	// the second one no batch that could still write this user's
	// counters remains in flight, and the snapshot below is final. With
	// no data thread bound the caller drives both planes and there is
	// nothing to wait for; the timeout covers a stalled one.
	fenced := true
	if cp.s.data.running.Load() {
		seq0 := cp.s.data.syncSeq.Load()
		deadline := time.Now().Add(50 * time.Millisecond)
		for cp.s.data.syncSeq.Load() < seq0+2 {
			if time.Now().After(deadline) {
				fenced = false
				break
			}
			cp.s.wakeData() // a parked data thread syncs only when woken
			runtime.Gosched()
		}
	}
	cs, cnt := ue.Snapshot()
	// The limiter is data-thread-private: only read it once the fence
	// proves no data batch can still touch this user (the syncSeq load
	// orders the data thread's writes before ours). On a fence timeout
	// the levels are simply not captured and the target starts the
	// limiter full — budget-conserving transfer is best effort, exact
	// whenever the fence holds (always, absent a stalled data thread).
	if fenced {
		if l := ue.Hot().Priv.Limiter; l != nil {
			lv.Valid = true
			lv.Levels = l.ExportLevels(sim.Now())
		}
	}
	cp.collector.Forget(imsi)
	return cs, cnt, lv, nil
}

// install restores a migrated user into this slice (target side),
// preserving identifiers.
func (cp *ControlPlane) install(cs state.ControlState, cnt state.CounterState, now int64) error {
	return cp.installLevels(cs, cnt, state.QoSLevels{}, now)
}

// installLevels is install carrying captured QoS token levels: the
// limiter is pre-built on the (not yet published) hot half with the
// migrated budget, so the data thread's first rebuild reapplies the
// identical configuration and configurePreserving keeps the seeded
// levels — a user cannot reset its policing budget by migrating.
func (cp *ControlPlane) installLevels(cs state.ControlState, cnt state.CounterState, lv state.QoSLevels, now int64) error {
	if cp.s.cp.LookupIMSI(cs.IMSI) != nil {
		return ErrUserExists
	}
	ue := &state.UE{}
	ue.Restore(cs, cnt)
	if lv.Valid {
		cp.seedLimiter(ue, &cs, lv)
	}
	if err := cp.s.cp.Insert(ue); err != nil {
		return err
	}
	cp.notifyInsert(cs.UplinkTEID, cs.UEAddr, ue)
	cp.collector.Seed(cs.IMSI, charging.Snapshot(ue, cs.IMSI), now)
	return nil
}

// seedLimiter pre-builds the data-private limiter with the exact
// configuration rebuildPriv will derive from the control state, then
// seeds the migrated token levels. It runs before the user is published
// to the data plane (table insert + update sync), so the single-owner
// rule on Priv holds.
func (cp *ControlPlane) seedLimiter(ue *state.UE, cs *state.ControlState, lv state.QoSLevels) {
	l := &qos.UserLimiter{}
	l.ConfigureUser(cs.AMBRUplink, cs.AMBRDownlink)
	for i := 0; i < int(cs.BearerCount); i++ {
		l.ConfigureBearer(i, cs.Bearers[i].MBRUplink, cs.Bearers[i].MBRDownlink)
	}
	l.SeedLevels(lv.Levels, sim.Now())
	ue.Hot().Priv.Limiter = l
}

// exec runs fn as the slice's control thread: under mu, so it is the
// slice's only control writer while it runs. Every path that reaches a
// slice's control state from a goroutine of its own goes through here.
// mu is not reentrant: fn must not call exec on the same slice. Lock
// order is the cluster's attachMu, then mu, then the demux's mu.
func (cp *ControlPlane) exec(fn func()) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	fn()
}

// AddDedicatedBearer establishes a dedicated bearer for a user with its
// own QoS class, rate bounds and traffic flow template — the
// dedicated-bearer activation the PCRF triggers for e.g. voice. The data
// plane starts mapping matching flows to the new bearer at its next
// packet.
func (cp *ControlPlane) AddDedicatedBearer(imsi uint64, b state.Bearer) error {
	ue := cp.s.cp.LookupIMSI(imsi)
	if ue == nil {
		return ErrUserUnknown
	}
	added := false
	ue.WriteCtrl(func(c *state.ControlState) {
		added = c.AddBearer(b)
	})
	if !added {
		return ErrPoolExhausted
	}
	return nil
}
