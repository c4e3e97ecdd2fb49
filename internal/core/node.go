package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pepc/internal/gtp"
	"pepc/internal/pcef"
	"pepc/internal/pcrf"
	"pepc/internal/pkt"
	"pepc/internal/sctp"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// Node is one PEPC server (§3.3, Figure 3): a set of slices plus the
// Demux that steers packets and signaling to slices, the Scheduler that
// instantiates slices and manages migration, and the Proxy to backend
// servers.
type Node struct {
	slices []*Slice
	demux  *Demux
	sched  *Scheduler
	proxy  *Proxy
}

// NewNode instantiates a node with its slices. Use AttachBackends to wire
// HSS/PCRF after construction.
func NewNode(sliceCfgs ...SliceConfig) *Node {
	n := &Node{}
	for i, cfg := range sliceCfgs {
		if cfg.ID == 0 {
			cfg.ID = i
		}
		n.slices = append(n.slices, NewSlice(cfg))
	}
	n.demux = NewDemux(len(n.slices))
	n.sched = newScheduler(n)
	return n
}

// AttachProxy wires a proxy into every slice's control plane.
func (n *Node) AttachProxy(p *Proxy) {
	n.proxy = p
	for _, s := range n.slices {
		s.ctrl.SetProxy(p)
	}
}

// Slice returns slice i.
func (n *Node) Slice(i int) *Slice {
	if i < 0 || i >= len(n.slices) {
		return nil
	}
	return n.slices[i]
}

// NumSlices returns the slice count.
func (n *Node) NumSlices() int { return len(n.slices) }

// Demux returns the node's demux.
func (n *Node) Demux() *Demux { return n.demux }

// Scheduler returns the node's scheduler.
func (n *Node) Scheduler() *Scheduler { return n.sched }

// Proxy returns the node's proxy (nil in synthetic mode).
func (n *Node) Proxy() *Proxy { return n.proxy }

// AttachUser runs the attach procedure on slice sliceIdx and registers
// the resulting identifiers with the demux.
func (n *Node) AttachUser(sliceIdx int, spec AttachSpec) (AttachResult, error) {
	s := n.Slice(sliceIdx)
	if s == nil {
		return AttachResult{}, fmt.Errorf("core: no slice %d", sliceIdx)
	}
	res, err := s.ctrl.Attach(spec)
	if err != nil {
		return res, err
	}
	n.demux.Register(res.UplinkTEID, res.UEAddr, spec.IMSI, sliceIdx)
	return res, nil
}

// ServeS1AP binds an S1AP server to slice sliceIdx with demux
// registration wired, so users attached over the wire are steerable.
func (n *Node) ServeS1AP(sliceIdx int, assoc *sctp.Assoc) (*S1APServer, error) {
	s := n.Slice(sliceIdx)
	if s == nil {
		return nil, ErrSliceRange
	}
	srv := NewS1APServer(s.ctrl, assoc)
	srv.SetRegistrar(func(teid, ueIP uint32, imsi uint64, register bool) {
		if register {
			n.demux.Register(teid, ueIP, imsi, sliceIdx)
		} else {
			n.demux.Unregister(teid, ueIP, imsi)
		}
	})
	return srv, nil
}

// Demux steers incoming traffic to slices (§3.3: "PEPC's Demux function
// is responsible for steering incoming signaling and data traffic to its
// associated slice ... it uses the TEID (for uplink) or user device IP
// address (for downlink)"; signaling resolves by IMSI or GUTI).
//
// Lookups take a read lock; the node scheduler remaps users under the
// write lock during migration. Users marked migrating divert to a
// per-user buffer queue instead of a slice (§4.3).
type Demux struct {
	mu     sync.RWMutex
	byTEID map[uint32]int
	byIP   map[uint32]int
	byIMSI map[uint64]int
	// migrating holds per-user packet buffers keyed by demux key while a
	// migration is in flight.
	migrating map[uint32]*migBuffer

	numSlices int

	Steered  atomic.Uint64
	Unknown  atomic.Uint64
	Buffered atomic.Uint64

	// steerTestHook, when non-nil, runs between steer's read-locked
	// migration lookup and its write-locked double check. Tests use it to
	// complete a migration inside that window deterministically; nil in
	// production.
	steerTestHook func()
}

type migBuffer struct {
	pkts []*pkt.Buf
}

// NewDemux returns an empty demux for a node with numSlices slices.
func NewDemux(numSlices int) *Demux {
	return &Demux{
		byTEID:    make(map[uint32]int),
		byIP:      make(map[uint32]int),
		byIMSI:    make(map[uint64]int),
		migrating: make(map[uint32]*migBuffer),
		numSlices: numSlices,
	}
}

// Register maps a user's data and signaling keys to a slice.
func (d *Demux) Register(teid, ueIP uint32, imsi uint64, slice int) {
	d.mu.Lock()
	if teid != 0 {
		d.byTEID[teid] = slice
	}
	if ueIP != 0 {
		d.byIP[ueIP] = slice
	}
	if imsi != 0 {
		d.byIMSI[imsi] = slice
	}
	d.mu.Unlock()
}

// Unregister removes a user's mappings.
func (d *Demux) Unregister(teid, ueIP uint32, imsi uint64) {
	d.mu.Lock()
	delete(d.byTEID, teid)
	delete(d.byIP, ueIP)
	delete(d.byIMSI, imsi)
	d.mu.Unlock()
}

// LookupSlice resolves the slice for an uplink TEID (the paper's
// LookUpSlice function).
func (d *Demux) LookupSlice(teid uint32) (int, bool) {
	d.mu.RLock()
	s, ok := d.byTEID[teid]
	d.mu.RUnlock()
	return s, ok
}

// LookupSliceByIP resolves the slice for a downlink UE address.
func (d *Demux) LookupSliceByIP(ip uint32) (int, bool) {
	d.mu.RLock()
	s, ok := d.byIP[ip]
	d.mu.RUnlock()
	return s, ok
}

// LookupSliceByIMSI resolves the slice for signaling traffic.
func (d *Demux) LookupSliceByIMSI(imsi uint64) (int, bool) {
	d.mu.RLock()
	s, ok := d.byIMSI[imsi]
	d.mu.RUnlock()
	return s, ok
}

// SteerUplink routes one uplink (GTP-U) packet: into the owning slice's
// uplink ring, into a migration buffer, or dropped when unknown. The
// caller relinquishes the buffer. The outer envelope is parsed exactly
// once here and the validated result recorded in the packet metadata, so
// the slice's decap is a TrimFront rather than a second header walk.
func (n *Node) SteerUplink(b *pkt.Buf) {
	teid, hdrLen, err := gtp.ParseOuter(b.Bytes())
	if err != nil {
		n.demux.Unknown.Add(1)
		b.Free()
		return
	}
	b.Meta.TEID = teid
	b.Meta.OuterLen = uint16(hdrLen)
	b.Meta.OuterParsed = true
	n.steer(teid, b, true)
}

// SteerDownlink routes one downlink (plain IP) packet by destination UE
// address. The inner flow parsed for steering is recorded in the packet
// metadata so the slice's parse stage reuses it.
func (n *Node) SteerDownlink(b *pkt.Buf) {
	flow, _, ok := parseInner(b)
	if !ok {
		n.demux.Unknown.Add(1)
		b.Free()
		return
	}
	b.Meta.Flow = flow
	b.Meta.FlowParsed = true
	n.steer(flow.Dst, b, false)
}

func (n *Node) steer(key uint32, b *pkt.Buf, uplink bool) {
	d := n.demux
	d.mu.RLock()
	mb := d.migrating[key]
	var sliceIdx int
	var ok bool
	if uplink {
		sliceIdx, ok = d.byTEID[key]
	} else {
		sliceIdx, ok = d.byIP[key]
	}
	d.mu.RUnlock()
	if mb != nil {
		if d.steerTestHook != nil {
			d.steerTestHook()
		}
		// User is mid-migration: buffer until the transfer completes
		// (§4.3: "the PEPC scheduler buffers the packets which are
		// undergoing migration ... per-user migration queues, which are
		// drained once a user state is migrated").
		d.mu.Lock()
		if mb2 := d.migrating[key]; mb2 != nil {
			mb2.pkts = append(mb2.pkts, b)
			d.Buffered.Add(1)
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
		// Migration finished between the two lock acquisitions; fall
		// through to normal steering with a fresh lookup.
		d.mu.RLock()
		if uplink {
			sliceIdx, ok = d.byTEID[key]
		} else {
			sliceIdx, ok = d.byIP[key]
		}
		d.mu.RUnlock()
	}
	if !ok {
		d.Unknown.Add(1)
		b.Free()
		return
	}
	s := n.slices[sliceIdx]
	if !s.enqueue(b, uplink) {
		b.Free() // ring full: tail drop
		return
	}
	d.Steered.Add(1)
}

// Scheduler manages slices and migrations (§3.3: "(i) managing slices ...
// and (ii) managing migration (e.g., receiving state migration requests
// from an external controller, initiating state transfers from slices)").
type Scheduler struct {
	n *Node

	Migrations       atomic.Uint64
	MigrationsFailed atomic.Uint64
}

func newScheduler(n *Node) *Scheduler { return &Scheduler{n: n} }

// Migration errors.
var (
	ErrSameSlice     = errors.New("core: source and target slice are the same")
	ErrSliceRange    = errors.New("core: slice index out of range")
	ErrNotRegistered = errors.New("core: user not registered with demux")
)

// StateTransferMessage is the serialized user state in flight between
// slices (Listing 1's migration channel payload).
type StateTransferMessage struct {
	IMSI uint64
	Data [state.SnapshotSize]byte
}

// MigrateUser moves one user's state from slice src to slice dst within
// the node (§4.3 implements intra-node migration; inter-node adds a
// transport hop with identical logic). Packets arriving mid-transfer are
// buffered per user and drained to the new slice afterwards, so no
// packets are lost or processed against stale state.
func (sc *Scheduler) MigrateUser(imsi uint64, src, dst int) error {
	n := sc.n
	if src == dst {
		return ErrSameSlice
	}
	if n.Slice(src) == nil || n.Slice(dst) == nil {
		return ErrSliceRange
	}
	d := n.demux

	// Resolve the user's demux keys from the source slice.
	ue := n.slices[src].ctrl.Lookup(imsi)
	if ue == nil {
		sc.MigrationsFailed.Add(1)
		return ErrUserUnknown
	}
	var teid, ueIP uint32
	ue.ReadCtrl(func(c *state.ControlState) {
		teid = c.UplinkTEID
		ueIP = c.UEAddr
	})

	// 1. Start buffering: packets for this user divert to per-user
	// queues.
	d.mu.Lock()
	if _, exists := d.byTEID[teid]; !exists {
		d.mu.Unlock()
		sc.MigrationsFailed.Add(1)
		return ErrNotRegistered
	}
	d.migrating[teid] = &migBuffer{}
	d.migrating[ueIP] = &migBuffer{}
	d.mu.Unlock()

	// 2. Extract from the source slice (snapshot + delete). The request
	// executes on the source control thread when its loop is running, so
	// the single-writer rule holds.
	var cs state.ControlState
	var cnt state.CounterState
	var lv state.QoSLevels
	var err error
	n.slices[src].ctrl.exec(func() {
		cs, cnt, lv, err = n.slices[src].ctrl.extract(imsi)
	})
	if err != nil {
		sc.abortMigration(teid, ueIP)
		sc.MigrationsFailed.Add(1)
		return err
	}

	// Serialize through the state-transfer encoding: the same bytes an
	// inter-node transfer would ship.
	var msg StateTransferMessage
	msg.IMSI = imsi
	if _, err := state.MarshalSnapshotLevels(msg.Data[:], &cs, &cnt, &lv); err != nil {
		sc.abortMigration(teid, ueIP)
		sc.MigrationsFailed.Add(1)
		return err
	}
	var cs2 state.ControlState
	var cnt2 state.CounterState
	var lv2 state.QoSLevels
	if err := state.UnmarshalSnapshotLevels(msg.Data[:], &cs2, &cnt2, &lv2); err != nil {
		sc.abortMigration(teid, ueIP)
		sc.MigrationsFailed.Add(1)
		return err
	}

	// 3. Install into the target slice (on its control thread).
	var instErr error
	n.slices[dst].ctrl.exec(func() {
		instErr = n.slices[dst].ctrl.installLevels(cs2, cnt2, lv2, sim.Now())
	})
	if instErr != nil {
		sc.abortMigration(teid, ueIP)
		sc.MigrationsFailed.Add(1)
		return err
	}

	// 4. Remap the demux and drain the buffered packets to the new
	// slice.
	d.mu.Lock()
	d.byTEID[teid] = dst
	d.byIP[ueIP] = dst
	d.byIMSI[imsi] = dst
	bufUp := d.migrating[teid]
	bufDown := d.migrating[ueIP]
	delete(d.migrating, teid)
	delete(d.migrating, ueIP)
	d.mu.Unlock()

	target := n.slices[dst]
	if bufUp != nil {
		for _, b := range bufUp.pkts {
			if !target.enqueue(b, true) {
				b.Free()
			}
		}
	}
	if bufDown != nil {
		for _, b := range bufDown.pkts {
			if !target.enqueue(b, false) {
				b.Free()
			}
		}
	}
	sc.Migrations.Add(1)
	return nil
}

// abortMigration cancels buffering and replays buffered packets to the
// (unchanged) owner.
func (sc *Scheduler) abortMigration(teid, ueIP uint32) {
	d := sc.n.demux
	d.mu.Lock()
	bufUp := d.migrating[teid]
	bufDown := d.migrating[ueIP]
	delete(d.migrating, teid)
	delete(d.migrating, ueIP)
	up, upOK := d.byTEID[teid]
	down, downOK := d.byIP[ueIP]
	d.mu.Unlock()
	if bufUp != nil {
		for _, b := range bufUp.pkts {
			if upOK && sc.n.slices[up].enqueue(b, true) {
				continue
			}
			b.Free()
		}
	}
	if bufDown != nil {
		for _, b := range bufDown.pkts {
			if downOK && sc.n.slices[down].enqueue(b, false) {
				continue
			}
			b.Free()
		}
	}
}

// EnablePolicyPush subscribes the node to the PCRF's unsolicited rule
// installs (the Gx RAR path, §3.2: "accepting updates to the user's
// charging/accounting rules from the PCRF (this involves writing to the
// user's control state)"). Pushed rules land on the owning slice's
// control plane: installed into its PCEF and recorded in the user's
// control state.
func (n *Node) EnablePolicyPush(p *pcrf.PCRF) {
	p.OnPush(func(imsi uint64, rules []pcef.Rule) {
		sliceIdx, ok := n.demux.LookupSliceByIMSI(imsi)
		if !ok {
			return // user not on this node
		}
		s := n.slices[sliceIdx]
		s.ctrl.exec(func() {
			ue := s.ctrl.Lookup(imsi)
			if ue == nil {
				return
			}
			s.ctrl.installRules(ue, rules)
		})
	})
}

// ExportUser extracts a user from this node for transfer to another node
// (the paper's §3.5 "moving processing closer to the user" across
// servers; §4.3 implements the intra-node case, this is the inter-node
// extension). The user stops being served here immediately; the caller
// ships the returned message to the target node (the cluster balancer
// redirects the user's traffic once the target registers it).
func (sc *Scheduler) ExportUser(imsi uint64, src int) (StateTransferMessage, error) {
	var msg StateTransferMessage
	n := sc.n
	if n.Slice(src) == nil {
		return msg, ErrSliceRange
	}
	ue := n.slices[src].ctrl.Lookup(imsi)
	if ue == nil {
		sc.MigrationsFailed.Add(1)
		return msg, ErrUserUnknown
	}
	var teid, ueIP uint32
	ue.ReadCtrl(func(c *state.ControlState) {
		teid = c.UplinkTEID
		ueIP = c.UEAddr
	})
	var cs state.ControlState
	var cnt state.CounterState
	var lv state.QoSLevels
	var err error
	n.slices[src].ctrl.exec(func() {
		cs, cnt, lv, err = n.slices[src].ctrl.extract(imsi)
	})
	if err != nil {
		sc.MigrationsFailed.Add(1)
		return msg, err
	}
	n.demux.Unregister(teid, ueIP, imsi)
	msg.IMSI = imsi
	if _, err := state.MarshalSnapshotLevels(msg.Data[:], &cs, &cnt, &lv); err != nil {
		sc.MigrationsFailed.Add(1)
		return msg, err
	}
	sc.Migrations.Add(1)
	return msg, nil
}

// ImportUser installs a user exported from another node into slice dst
// and registers it with this node's demux.
func (sc *Scheduler) ImportUser(msg StateTransferMessage, dst int) error {
	n := sc.n
	if n.Slice(dst) == nil {
		return ErrSliceRange
	}
	var cs state.ControlState
	var cnt state.CounterState
	var lv state.QoSLevels
	if err := state.UnmarshalSnapshotLevels(msg.Data[:], &cs, &cnt, &lv); err != nil {
		return err
	}
	var instErr error
	n.slices[dst].ctrl.exec(func() {
		instErr = n.slices[dst].ctrl.installLevels(cs, cnt, lv, sim.Now())
	})
	if instErr != nil {
		return instErr
	}
	n.demux.Register(cs.UplinkTEID, cs.UEAddr, cs.IMSI, dst)
	return nil
}

// DetachUser runs the detach procedure on slice sliceIdx and removes the
// user's identifiers from the demux — the inverse of AttachUser for
// callers (the cluster layer) that route signaling per user rather than
// through an S1AP server's registrar.
func (n *Node) DetachUser(sliceIdx int, imsi uint64) error {
	s := n.Slice(sliceIdx)
	if s == nil {
		return ErrSliceRange
	}
	ue := s.ctrl.Lookup(imsi)
	if ue == nil {
		return ErrUserUnknown
	}
	var teid, ueIP uint32
	ue.ReadCtrl(func(c *state.ControlState) {
		teid = c.UplinkTEID
		ueIP = c.UEAddr
	})
	var err error
	s.ctrl.exec(func() { err = s.ctrl.Detach(imsi) })
	if err != nil {
		return err
	}
	n.demux.Unregister(teid, ueIP, imsi)
	return nil
}
