package core

import (
	"pepc/internal/sim"
	"pepc/internal/state"
)

// This file implements the control plane's batched procedure execution:
// signaling events arrive on a ring (EnqueueSignal) and the control
// thread drains them in batches (DrainSignaling), grouping consecutive
// events of one procedure type so the table index lock, the data-plane
// update push and the HSS/PCRF proxy round-trip each amortize across
// the group — the control-plane mirror of the data plane's staged batch
// pipeline. Grouping only coalesces *consecutive* runs of one kind, so
// the per-user ordering of mixed procedures (attach before handover
// before detach) is preserved exactly as submitted. A procedure called
// directly (AttachEvent, S1Handover, Detach) runs the same code as a run
// of one event (apply), so each procedure's state writes exist once.

// SigKind identifies a batched signaling procedure.
type SigKind uint8

// Signaling procedure kinds.
const (
	// SigAttachEvent is the at-scale attach state operation on an
	// existing user (ControlPlane.AttachEvent).
	SigAttachEvent SigKind = iota
	// SigS1Handover rewrites the user's serving-eNodeB tunnel state
	// (ControlPlane.S1Handover).
	SigS1Handover
	// SigDetach removes the user (ControlPlane.Detach).
	SigDetach
	// SigQoSUpdate rewrites the user's aggregate rate bounds (the N4
	// Update QER procedure; the data plane reconfigures the token
	// buckets from the new AMBR at its next packet via the epoch bump).
	SigQoSUpdate
)

// SigEvent is one signaling procedure request. Fields beyond IMSI are
// interpreted per kind (handover: the new tunnel endpoint; QoS update:
// the new aggregate rate bounds in bits/s).
type SigEvent struct {
	Kind         SigKind
	IMSI         uint64
	ENBAddr      uint32
	DownlinkTEID uint32
	ECGI         uint32
	AMBRUplink   uint64
	AMBRDownlink uint64
}

// EnqueueSignal submits a signaling event to the control thread's ring,
// where it waits for the next DrainSignaling. Any thread may call it.
// Returns false (and counts the drop) when the ring is full —
// backpressure toward the RAN.
func (cp *ControlPlane) EnqueueSignal(ev SigEvent) bool {
	if !cp.sigQ.Enqueue(ev) {
		cp.SigDrops.Add(1)
		return false
	}
	return true
}

// SignalBacklog returns the approximate number of queued signaling
// events.
func (cp *ControlPlane) SignalBacklog() int { return cp.sigQ.Len() }

// DrainSignaling dequeues up to max events (capped at the drain batch
// size) and executes them as grouped procedures. Control thread only.
// Returns the number of events processed.
func (cp *ControlPlane) DrainSignaling(max int) int {
	if max <= 0 || max > len(cp.sigScratch) {
		max = len(cp.sigScratch)
	}
	evs := cp.sigScratch[:max]
	n := cp.sigQ.DequeueBatch(evs)
	if n == 0 {
		return 0
	}
	evs = evs[:n]
	for i := 0; i < n; {
		j := i + 1
		for j < n && evs[j].Kind == evs[i].Kind {
			j++
		}
		cp.run(evs[i:j])
		i = j
	}
	return n
}

// apply executes one event on the spot, as a run of one: the entry of
// the procedures called directly. It returns ErrUserUnknown when the
// event's user is not on the slice. Control thread only.
func (cp *ControlPlane) apply(ev SigEvent) error {
	evs := cp.sigScratch[:1]
	evs[0] = ev
	if cp.run(evs) == 0 {
		return ErrUserUnknown
	}
	return nil
}

// run executes a run of events of one kind as one grouped procedure and
// returns how many of their users it found.
func (cp *ControlPlane) run(evs []SigEvent) int {
	switch evs[0].Kind {
	case SigAttachEvent:
		return cp.attachEventBatch(evs)
	case SigS1Handover:
		return cp.s1HandoverBatch(evs)
	case SigDetach:
		return cp.detachBatch(evs)
	case SigQoSUpdate:
		return cp.qosUpdateBatch(evs)
	}
	return 0
}

// attachEventBatch executes a run of attach events: one batched IMSI
// lookup, per-user control writes, one batched update push.
func (cp *ControlPlane) attachEventBatch(run []SigEvent) int {
	for i := range run {
		cp.sigIMSIs[i] = run[i].IMSI
	}
	cp.s.cp.LookupIMSIBatch(cp.sigIMSIs[:len(run)], cp.sigUEs[:len(run)])
	now := sim.Now()
	upd := cp.updScratch[:0]
	done := 0
	for i := range run {
		ue := cp.sigUEs[i]
		if ue == nil {
			continue
		}
		var teid, ueAddr uint32
		ue.WriteCtrl(func(c *state.ControlState) {
			c.Attached = true
			c.LastActive = now
			c.Bearers[0].QCI = 9
			c.TAIList[0] = c.TAI
			c.TAICount = 1
			teid = c.UplinkTEID
			ueAddr = c.UEAddr
		})
		upd = append(upd, state.Update{Op: state.OpInsert, TEID: teid, UEIP: ueAddr, UE: ue})
		done++
	}
	cp.s.pushUpdates(upd...)
	cp.updScratch = upd[:0]
	cp.Attaches.Add(uint64(done))
	return done
}

// s1HandoverBatch executes a run of S1 handovers: one batched IMSI
// lookup, then per-user tunnel rewrites. Handovers touch no index, so
// there is nothing to push.
func (cp *ControlPlane) s1HandoverBatch(run []SigEvent) int {
	for i := range run {
		cp.sigIMSIs[i] = run[i].IMSI
	}
	cp.s.cp.LookupIMSIBatch(cp.sigIMSIs[:len(run)], cp.sigUEs[:len(run)])
	now := sim.Now()
	done := 0
	for i := range run {
		ue := cp.sigUEs[i]
		if ue == nil {
			continue
		}
		ev := &run[i]
		ue.WriteCtrl(func(c *state.ControlState) {
			c.ENBAddr = ev.ENBAddr
			c.DownlinkTEID = ev.DownlinkTEID
			c.ECGI = ev.ECGI
			c.LastActive = now
		})
		done++
	}
	cp.Handovers.Add(uint64(done))
	return done
}

// qosUpdateBatch executes a run of QoS updates: one batched IMSI
// lookup, then per-user AMBR rewrites. Like handovers these touch no
// index; the control-write epoch bump makes the data plane rebuild the
// user's token buckets from the new bounds at its next packet.
func (cp *ControlPlane) qosUpdateBatch(run []SigEvent) int {
	for i := range run {
		cp.sigIMSIs[i] = run[i].IMSI
	}
	cp.s.cp.LookupIMSIBatch(cp.sigIMSIs[:len(run)], cp.sigUEs[:len(run)])
	now := sim.Now()
	done := 0
	for i := range run {
		ue := cp.sigUEs[i]
		if ue == nil {
			continue
		}
		ev := &run[i]
		ue.WriteCtrl(func(c *state.ControlState) {
			c.AMBRUplink = ev.AMBRUplink
			c.AMBRDownlink = ev.AMBRDownlink
			c.LastActive = now
		})
		done++
	}
	cp.QoSUpdates.Add(uint64(done))
	return done
}

// detachBatch executes a run of detaches: one batched index removal,
// one batched update push, one batched Gx termination toward the PCRF,
// and the contexts parked on the free list for recycling.
func (cp *ControlPlane) detachBatch(run []SigEvent) int {
	for i := range run {
		cp.sigIMSIs[i] = run[i].IMSI
	}
	cp.s.cp.RemoveBatch(cp.sigIMSIs[:len(run)], cp.sigUEs[:len(run)])
	upd := cp.updScratch[:0]
	term := 0
	for i := range run {
		ue := cp.sigUEs[i]
		if ue == nil {
			continue
		}
		teid, ueAddr := ueKeys(ue)
		upd = append(upd, state.Update{Op: state.OpDelete, TEID: teid, UEIP: ueAddr})
		cp.collector.Forget(run[i].IMSI)
		cp.retire(ue, teid, ueAddr)
		// Compact the surviving IMSIs for the batched Gx termination.
		cp.sigIMSIs[term] = run[i].IMSI
		term++
	}
	cp.s.pushUpdates(upd...)
	cp.updScratch = upd[:0]
	if cp.proxy != nil && term > 0 {
		_ = cp.proxy.TerminateGxSessionBatch(cp.sigIMSIs[:term])
	}
	cp.Detaches.Add(uint64(term))
	return term
}
