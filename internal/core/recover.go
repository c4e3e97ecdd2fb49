package core

import (
	"io"

	"pepc/internal/fault"
	"pepc/internal/state"
)

// This file implements slice crash recovery on top of the checkpoint
// stream (checkpoint.go): a replacement slice is rebuilt from the last
// checkpoint plus whatever survives the crash in memory — the
// control→data update queue and the undrained signaling ring. The
// consolidated per-user state makes the reconciliation rule simple:
// every surviving update references a context whose current snapshot is
// by construction at least as new as the checkpoint, so replay is
// "snapshot and reinstall", never a byte-level log merge.

// RecoveryReport summarizes one RecoverFrom pass.
type RecoveryReport struct {
	// Restored counts users installed from the checkpoint stream.
	Restored int
	// Replayed counts post-checkpoint attaches resurrected from the
	// surviving update queue (users absent from the checkpoint).
	Replayed int
	// Refreshed counts checkpointed users whose surviving context was
	// newer than the checkpoint copy (counters or tunnel state moved
	// after the snapshot was taken).
	Refreshed int
	// CompletedDetaches counts users removed because a queued delete
	// proved their detach completed on the control side before the
	// crash.
	CompletedDetaches int
	// SignalsAdopted counts signaling events moved from the crashed
	// slice's ring into the new slice's ring (still to be executed).
	SignalsAdopted int
	// Synced is the number of index updates applied by the final sync.
	Synced int
}

// RecoverFrom rebuilds this (fresh) slice from a checkpoint stream plus
// the surviving in-memory state of the crashed slice: its update queue
// is reconciled against the restored population and its undrained
// signaling ring is adopted for the new control thread to execute.
// crashed may be nil (checkpoint-only recovery, e.g. a cold standby
// node). Neither plane of the crashed slice may still be running.
//
// Invariants on return: the new slice shares no *UE with the crashed
// one (contexts are snapshotted, then reinstalled through the normal
// attach path); counters of every user referenced by the surviving
// queue are exact, and counters of untouched users are stale by at most
// the checkpoint age — the paper's per-user crash consistency (§8).
func (s *Slice) RecoverFrom(r io.Reader, crashed *Slice) (RecoveryReport, error) {
	var rep RecoveryReport
	restored, err := s.RestoreCheckpoint(r)
	rep.Restored = restored
	if err != nil {
		return rep, err
	}
	if crashed != nil {
		s.reconcileSurvivors(crashed, &rep)
		rep.SignalsAdopted = s.transferSignals(crashed)
	}
	rep.Synced = s.data.SyncUpdates()
	return rep, nil
}

// reconcileSurvivors replays the crashed slice's undrained update queue
// against the restored population, in queue order. Inserts carry a
// context pointer: its *current* snapshot (final pre-crash state) is
// installed — resurrecting post-checkpoint attaches and refreshing stale
// checkpoint copies. Deletes carry only keys: a key still owned by a
// user in the crashed control store is a recycled key superseded by a
// later re-insert (skipped); a key with no surviving owner proves the
// detach completed before the crash, so the restored copy is removed —
// a queued detach is never lost, a completed one never resurrected.
func (s *Slice) reconcileSurvivors(crashed *Slice, rep *RecoveryReport) {
	seen := make(map[uint64]struct{})
	crashed.updates.DrainFunc(func(u state.Update) {
		switch u.Op {
		case state.OpInsert:
			if u.UE == nil {
				return
			}
			// The snapshot reads the context's final state, so every
			// queued update for one user replays identically; dedup.
			cs, cnt := u.UE.Snapshot()
			if cs.IMSI == 0 {
				return
			}
			if _, dup := seen[cs.IMSI]; dup {
				return
			}
			seen[cs.IMSI] = struct{}{}
			if existing := s.cp.LookupIMSI(cs.IMSI); existing != nil {
				var oldTEID, oldAddr uint32
				existing.ReadCtrl(func(c *state.ControlState) {
					oldTEID, oldAddr = c.UplinkTEID, c.UEAddr
				})
				if oldTEID == cs.UplinkTEID && oldAddr == cs.UEAddr {
					// Same identifiers: refresh control state and
					// counters in place, indexes stay valid.
					existing.Restore(cs, cnt)
				} else {
					// A re-attach after the checkpoint changed its
					// identifiers: replace the copy wholesale so the old
					// keys are removed.
					s.dropUser(cs.IMSI)
					if s.ctrl.install(cs, cnt, cs.LastActive) != nil {
						return
					}
				}
				rep.Refreshed++
				return
			}
			if s.ctrl.install(cs, cnt, cs.LastActive) == nil {
				rep.Replayed++
			}
		case state.OpDelete:
			if crashed.cp.LookupTEID(u.TEID) != nil {
				// Owner still attached at crash time: a delete of a
				// recycled key, superseded by the re-insert that follows
				// it in the queue — skip.
				return
			}
			if ue := s.cp.LookupTEID(u.TEID); ue != nil {
				var imsi uint64
				ue.ReadCtrl(func(c *state.ControlState) { imsi = c.IMSI })
				s.dropUser(imsi)
				rep.CompletedDetaches++
			}
		}
	})
}

// dropUser removes a restored user again (its detach completed before
// the crash, or its identifiers changed), unwinding everything install
// set up: control store entry, data-plane keys, charging baseline.
func (s *Slice) dropUser(imsi uint64) {
	ue, err := s.cp.Remove(imsi)
	if err != nil {
		return
	}
	var teid, addr uint32
	ue.ReadCtrl(func(c *state.ControlState) {
		teid, addr = c.UplinkTEID, c.UEAddr
	})
	s.ctrl.notifyDelete(teid, addr)
	s.ctrl.collector.Forget(imsi)
}

// transferSignals drains the crashed slice's undrained signaling ring
// into the new slice's ring, preserving order. The adopted events are
// executed by the new control thread's next DrainSignaling — a detach
// that was queued but not yet drained at the crash is carried over, not
// lost; events the crashed thread already drained are gone from the
// ring and therefore never run twice.
func (s *Slice) transferSignals(crashed *Slice) int {
	var buf [64]SigEvent
	moved := 0
	for {
		n := crashed.ctrl.sigQ.DequeueBatch(buf[:])
		if n == 0 {
			return moved
		}
		for i := 0; i < n; i++ {
			if s.ctrl.EnqueueSignal(buf[i]) {
				moved++
			}
		}
	}
}

// DrainUsers extracts every user of the slice through the state-transfer
// encoding, invoking fn for each message; a false return stops the walk.
// On return the drained users are gone from this slice (extract removes
// them), so the caller owns their state. The cluster layer uses this to
// scatter a recovered slice's population to its Maglev-picked owners;
// neither plane of the slice may be running concurrently with the drain
// beyond the normal extract fence. Returns the number drained.
func (s *Slice) DrainUsers(fn func(StateTransferMessage) bool) (int, error) {
	// Collect IMSIs first: extract mutates the store the Range walks.
	var imsis []uint64
	s.cp.Range(func(ue *state.UE) bool {
		ue.ReadCtrl(func(c *state.ControlState) {
			imsis = append(imsis, c.IMSI)
		})
		return true
	})
	drained := 0
	for _, imsi := range imsis {
		var cs state.ControlState
		var cnt state.CounterState
		var lv state.QoSLevels
		var err error
		s.ctrl.exec(func() {
			cs, cnt, lv, err = s.ctrl.extract(imsi)
		})
		if err != nil {
			return drained, err
		}
		var msg StateTransferMessage
		msg.IMSI = imsi
		if _, err := state.MarshalSnapshotLevels(msg.Data[:], &cs, &cnt, &lv); err != nil {
			return drained, err
		}
		drained++
		if !fn(msg) {
			break
		}
	}
	return drained, nil
}

// ArenaLive returns -1: no slice has an arena, because every user's hot
// state is embedded in its context. It survives only for bench/pepcmark,
// whose caller already skips -1; delete both when that harness next
// changes.
func (s *Slice) ArenaLive() int { return -1 }

// SetFaults arms fault injection across the slice: the signaling ring
// consults fault.RingOverflow on every enqueue (injected backpressure,
// surfacing as SigDrops) and every RunPass consults fault.WorkerStall
// before it dequeues. Call before the planes run; a nil injector
// disarms. The Gx-side faults are armed separately on the Proxy
// (SetGxFaults).
func (s *Slice) SetFaults(inj *fault.Injector) {
	s.faults = inj
	if inj == nil {
		s.ctrl.sigQ.FaultHook = nil
		return
	}
	s.ctrl.sigQ.FaultHook = func() bool { return inj.Fire(fault.RingOverflow) }
}
