package cluster

import (
	"bytes"

	"pepc/internal/core"
)

// RecoveryReport summarizes one node recovery.
type RecoveryReport struct {
	// SlicesRecovered counts slices rebuilt from checkpoints.
	SlicesRecovered int
	// Restored/Replayed/Refreshed aggregate the per-slice RecoverFrom
	// reports (checkpointed users, post-checkpoint attaches resurrected
	// from the surviving update queues, and refreshed copies).
	Restored  int
	Replayed  int
	Refreshed int
	// UsersScattered counts recovered users re-homed onto surviving
	// nodes at their Maglev picks.
	UsersScattered int
	// ImportFailed counts users whose re-home failed; they are dropped
	// from the directory.
	ImportFailed int
	// Orphans counts directory entries that pointed at the dead node
	// but were recovered by neither checkpoint nor queue replay (lost
	// attaches younger than both); they are detached from the
	// directory.
	Orphans int
}

// CheckpointAll captures a checkpoint stream for every slice of every
// live node and retains it in memory — the recovery source KillNode/
// RecoverNode replays. Returns the total number of users captured.
func (c *Cluster) CheckpointAll() (int, error) {
	c.mu.RLock()
	members := append([]*member(nil), c.members...)
	c.mu.RUnlock()
	total := 0
	for _, m := range members {
		cks := make([][]byte, m.node.NumSlices())
		for i := 0; i < m.node.NumSlices(); i++ {
			var buf bytes.Buffer
			m.attachMu.Lock()
			users, err := m.node.Slice(i).Checkpoint(&buf)
			m.attachMu.Unlock()
			if err != nil {
				return total, err
			}
			cks[i] = buf.Bytes()
			total += users
		}
		m.checkpoints = cks
	}
	return total, nil
}

// KillNode simulates a node crash: the member drops out of the Maglev
// table immediately (its users' packets surface as Missed drops on the
// re-picked owners), but its in-memory carcass and last checkpoints are
// kept for RecoverNode. No user state is migrated — that is the point.
func (c *Cluster) KillNode(name string) error {
	c.mu.Lock()
	m := c.byName[name]
	if m == nil {
		c.mu.Unlock()
		return ErrUnknownNode
	}
	if m.dead.Load() {
		c.mu.Unlock()
		return ErrNodeDead
	}
	if len(c.members) == 1 {
		c.mu.Unlock()
		return ErrLastNode
	}
	if err := c.bal.Remove(name); err != nil {
		c.mu.Unlock()
		return err
	}
	m.dead.Store(true)
	c.rebuildView()
	c.mu.Unlock()
	// Barrier: an attach that picked this member before the flip may
	// still be writing into it; wait it out so the carcass is quiescent
	// by the time KillNode returns and RecoverNode reads its queues.
	// (Such last-gasp attaches are replayed or counted as orphans by
	// RecoverNode — never silently leaked.)
	attachBarrier([]*member{m})
	return nil
}

// RecoverNode restores a killed node's population onto the surviving
// members: each dead slice is rebuilt from its last checkpoint plus the
// crashed slice's surviving update queue and signaling ring
// (core.RecoverFrom), then drained user-by-user and imported at each
// user's current Maglev pick. Counters are exact for every user the
// queue still referenced and stale by at most the checkpoint age for
// the rest — the paper's per-user crash consistency, extended across
// the cluster. The dead member is discarded on return.
func (c *Cluster) RecoverNode(name string) (RecoveryReport, error) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()

	var rep RecoveryReport
	c.mu.RLock()
	m := c.byName[name]
	c.mu.RUnlock()
	if m == nil {
		return rep, ErrUnknownNode
	}
	if !m.dead.Load() {
		return rep, ErrNodeAlive
	}
	if m.checkpoints == nil {
		return rep, ErrNoCheckpoint
	}

	recovered := make(map[uint64]struct{})
	cfgs := c.sliceConfigs()
	for i := 0; i < m.node.NumSlices(); i++ {
		fresh := core.NewSlice(cfgs[i])
		crashed := m.node.Slice(i)
		sliceRep, err := fresh.RecoverFrom(bytes.NewReader(m.checkpoints[i]), crashed)
		if err != nil {
			return rep, err
		}
		rep.SlicesRecovered++
		rep.Restored += sliceRep.Restored
		rep.Replayed += sliceRep.Replayed
		rep.Refreshed += sliceRep.Refreshed

		// Scatter: every recovered user goes to its current Maglev
		// pick (the dead node is out of the table, so picks are all
		// survivors).
		_, err = fresh.DrainUsers(func(msg core.StateTransferMessage) bool {
			recovered[msg.IMSI] = struct{}{}
			seq, ok := c.SeqOf(msg.IMSI)
			if !ok {
				// Recovered a user the directory no longer knows
				// (detached after the checkpoint, delete outlived by
				// the snapshot). Drop it.
				return true
			}
			dst, perr := c.pickMember(seq)
			if perr != nil {
				rep.ImportFailed++
				return true
			}
			sliceIdx := int(seq) % c.cfg.SlicesPerNode
			dst.attachMu.Lock()
			ierr := dst.node.Scheduler().ImportUser(msg, sliceIdx)
			dst.attachMu.Unlock()
			if ierr != nil {
				rep.ImportFailed++
				c.forgetUser(msg.IMSI, seq)
				return true
			}
			rep.UsersScattered++
			return true
		})
		if err != nil {
			return rep, err
		}
	}

	// Directory entries that lived on the dead node (its demux still
	// maps its whole pre-crash population) but were recovered by
	// neither checkpoint nor queue replay are unrecoverable; detach
	// them so signaling fails fast instead of blackholing.
	type userRef struct {
		imsi uint64
		seq  uint32
	}
	var orphans []userRef
	c.dirMu.RLock()
	for imsi, seq := range c.byIMSI {
		if _, ok := recovered[imsi]; ok {
			continue
		}
		if _, onDead := m.node.Demux().LookupSliceByIMSI(imsi); onDead {
			orphans = append(orphans, userRef{imsi, seq})
		}
	}
	c.dirMu.RUnlock()
	for _, o := range orphans {
		c.forgetUser(o.imsi, o.seq)
		rep.Orphans++
	}

	c.SyncAll()

	c.mu.Lock()
	delete(c.byName, name)
	c.mu.Unlock()
	return rep, nil
}
