package cluster

import (
	"pepc/internal/core"
	"pepc/internal/pkt"
)

// RebalanceReport summarizes one membership change.
type RebalanceReport struct {
	// Moved counts users migrated to their new owner.
	Moved int
	// Failed counts users whose export or import failed (they are
	// detached from the directory rather than left dangling).
	Failed int
	// RemappedEntries counts Maglev table entries whose backend changed
	// — the disruption bound: only users hashing into these entries
	// moved.
	RemappedEntries int
	// TableSize is the Maglev table size the bound is relative to.
	TableSize int
	// Chunks is the number of migration chunks the move was split into.
	Chunks int
}

// AddNode grows the cluster by one freshly built node and migrates
// exactly the users whose Maglev slots remapped onto it. The balancer
// flips before migration starts: new attaches route to the new node
// immediately, and remapped users' in-flight packets surface as Missed
// drops on the new owner until their chunk lands — the bounded
// disruption window.
func (c *Cluster) AddNode() (string, RebalanceReport, error) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()

	c.mu.Lock()
	name := c.freshName()
	m := c.newMember(name)
	before := c.bal.TableSnapshot()
	beforeView := append([]*member(nil), c.members...)
	if err := c.bal.Add(name); err != nil {
		c.mu.Unlock()
		return "", RebalanceReport{}, err
	}
	c.byName[name] = m
	c.rebuildView()
	after := c.bal.TableSnapshot()
	afterView := append([]*member(nil), c.members...)
	c.mu.Unlock()

	rep := c.migrateRemapped(before, beforeView, after, afterView)
	return name, rep, nil
}

// RemoveNode drains the named (still live) node gracefully: the
// balancer flips first, so every user of the node is "remapped" and
// migrated to its surviving owner; then the node is dropped from the
// cluster. Per Maglev, survivors' users do not move.
func (c *Cluster) RemoveNode(name string) (RebalanceReport, error) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()

	c.mu.Lock()
	m := c.byName[name]
	if m == nil {
		c.mu.Unlock()
		return RebalanceReport{}, ErrUnknownNode
	}
	if m.dead.Load() {
		c.mu.Unlock()
		return RebalanceReport{}, ErrNodeDead
	}
	if len(c.members) == 1 {
		c.mu.Unlock()
		return RebalanceReport{}, ErrLastNode
	}
	before := c.bal.TableSnapshot()
	beforeView := append([]*member(nil), c.members...)
	if err := c.bal.Remove(name); err != nil {
		c.mu.Unlock()
		return RebalanceReport{}, err
	}
	c.rebuildView()
	after := c.bal.TableSnapshot()
	afterView := append([]*member(nil), c.members...)
	c.mu.Unlock()

	rep := c.migrateRemapped(before, beforeView, after, afterView)

	c.mu.Lock()
	delete(c.byName, name)
	c.mu.Unlock()
	return rep, nil
}

func (c *Cluster) freshName() string {
	for {
		name := nodeName(c.nextID)
		c.nextID++
		if c.byName[name] == nil {
			return name
		}
	}
}

func nodeName(id int) string {
	// fmt.Sprintf-free to keep the call cheap under c.mu.
	var buf [20]byte
	n := len(buf)
	for {
		n--
		buf[n] = byte('0' + id%10)
		id /= 10
		if id == 0 {
			break
		}
	}
	return "node-" + string(buf[n:])
}

// migrateRemapped moves every attached user whose Maglev slot changed
// backend between the before/after snapshots, in chunks, via the
// export/import state-transfer path. Users that vanished mid-walk (a
// concurrent detach) are skipped; users whose transfer fails are
// removed from the directory and counted.
func (c *Cluster) migrateRemapped(before []int32, beforeView []*member, after []int32, afterView []*member) RebalanceReport {
	rep := RebalanceReport{TableSize: len(before)}
	for i := range before {
		var oldM, newM *member
		if before[i] >= 0 && int(before[i]) < len(beforeView) {
			oldM = beforeView[before[i]]
		}
		if after[i] >= 0 && int(after[i]) < len(afterView) {
			newM = afterView[after[i]]
		}
		if oldM != newM {
			rep.RemappedEntries++
		}
	}
	if rep.RemappedEntries == 0 {
		return rep
	}

	// Barrier: any attach that validated its pick against the old table
	// holds its member's attachMu until its directory insert lands, so
	// acquiring and releasing every pre-flip member's lock here
	// guarantees the snapshot below sees those users. Attaches locking
	// after the barrier revalidate against the new table and route
	// themselves correctly.
	attachBarrier(beforeView)
	attachBarrier(afterView)

	// Snapshot the population once; users attached after the flip are
	// already routed by the new table.
	c.dirMu.RLock()
	type userRef struct {
		imsi uint64
		seq  uint32
	}
	users := make([]userRef, 0, len(c.byIMSI))
	for imsi, seq := range c.byIMSI {
		users = append(users, userRef{imsi, seq})
	}
	c.dirMu.RUnlock()

	size := uint64(len(before))
	chunk := 0
	var dirty map[*member]struct{}
	for _, u := range users {
		slot := pkt.HashUint64(uint64(u.seq)) % size
		var oldM, newM *member
		if bi := before[slot]; bi >= 0 && int(bi) < len(beforeView) {
			oldM = beforeView[bi]
		}
		if ai := after[slot]; ai >= 0 && int(ai) < len(afterView) {
			newM = afterView[ai]
		}
		if oldM == newM || oldM == nil || newM == nil {
			continue
		}
		switch c.transferUser(u.imsi, u.seq, oldM, newM) {
		case transferOK:
			rep.Moved++
			if dirty == nil {
				dirty = make(map[*member]struct{})
			}
			dirty[newM] = struct{}{}
			chunk++
			if chunk >= c.cfg.MigrateChunk {
				rep.Chunks++
				chunk = 0
				for m := range dirty {
					syncMember(m)
					delete(dirty, m)
				}
			}
		case transferGone:
			// Concurrently detached; nothing to do.
		case transferFailed:
			rep.Failed++
			c.forgetUser(u.imsi, u.seq)
		}
	}
	if chunk > 0 {
		rep.Chunks++
	}
	for m := range dirty {
		syncMember(m)
	}
	return rep
}

type transferResult int

const (
	transferOK transferResult = iota
	transferGone
	transferFailed
)

// transferUser ships one user src→dst through the serialized snapshot.
// Both nodes' control entry points are serialized per node; src is
// always locked first — safe because reshapes (the only two-node
// lockers) are themselves serialized by rebalanceMu.
func (c *Cluster) transferUser(imsi uint64, seq uint32, src, dst *member) transferResult {
	sliceIdx := int(seq) % c.cfg.SlicesPerNode
	src.attachMu.Lock()
	msg, err := src.node.Scheduler().ExportUser(imsi, sliceIdx)
	src.attachMu.Unlock()
	if err == core.ErrUserUnknown {
		return transferGone
	}
	if err != nil {
		return transferFailed
	}
	dst.attachMu.Lock()
	err = dst.node.Scheduler().ImportUser(msg, sliceIdx)
	dst.attachMu.Unlock()
	if err != nil {
		return transferFailed
	}
	return transferOK
}

// forgetUser drops a user from the directory (failed transfer: its
// state is lost, keeping it routable would blackhole signaling).
func (c *Cluster) forgetUser(imsi uint64, seq uint32) {
	c.dirMu.Lock()
	delete(c.byIMSI, imsi)
	delete(c.bySeq, seq)
	c.freeSeqs = append(c.freeSeqs, seq)
	c.dirMu.Unlock()
}

// attachBarrier acquires and releases each member's attach lock in
// turn, forcing every in-flight control-plane entry (attach/detach/
// transfer) on those members to complete before the caller proceeds.
func attachBarrier(members []*member) {
	for _, m := range members {
		m.attachMu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier.
		m.attachMu.Unlock()
	}
}

func syncMember(m *member) {
	for i := 0; i < m.node.NumSlices(); i++ {
		m.node.Slice(i).Data().SyncUpdates()
	}
}
