package core

import (
	"errors"
	"fmt"
	"slices"
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
// HSS/PCRF after construction. A slice with ID 0 takes its index as ID.
// NewNode panics when two slices would share an ID (and so an identifier
// prefix) or an ID exceeds MaxSliceID.
func NewNode(sliceCfgs ...SliceConfig) *Node {
	n := &Node{}
	ids := make([]int, len(sliceCfgs))
	for i, cfg := range sliceCfgs {
		if cfg.ID == 0 {
			cfg.ID = i
		}
		ids[i] = cfg.ID
		n.slices = append(n.slices, NewSlice(cfg))
	}
	if err := checkSliceIDs(ids); err != nil {
		panic(err)
	}
	n.demux = newDemux(ids)
	n.sched = newScheduler(n)
	return n
}

// checkSliceIDs reports the first slice whose ID is out of range or
// repeats an earlier slice's.
func checkSliceIDs(ids []int) error {
	for i, id := range ids {
		if id < 0 || id > MaxSliceID {
			return fmt.Errorf("core: slice %d: id %d outside 0..%d", i, id, MaxSliceID)
		}
		if j := slices.Index(ids[:i], id); j >= 0 {
			return fmt.Errorf("core: slice %d: id %d already taken by slice %d", i, id, j)
		}
	}
	return nil
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
// Data steering is arithmetic: a key's top byte names its home slice
// (HomeTEID, HomeUEAddr), read from a table NewNode fills from its
// slices' IDs. Users off their home slice have an entry in the exception
// table, which always wins: users mid-migration (with the buffer their
// packets divert to, §4.3), users migrated or imported onto another
// slice, and identifiers assigned outside the allocator (N4 F-TEIDs and
// UE addresses). The per-packet read takes no lock: one atomic load
// while the table is empty, one sync.Map load otherwise. Writers —
// Register, Unregister, the migration handshake — and the migration
// buffer's slow path serialize on mu.
//
// A key on a home prefix steers there even when its user is gone, and
// the slice counts the packet Missed; a key with neither home nor
// exception is dropped here as Unknown.
type Demux struct {
	mu     sync.Mutex
	byIMSI map[uint64]int

	// home maps a demuxKey>>24 to a slice index, or steerUnknown.
	home [512]int32
	// exc maps a demuxKey to its *route; excN counts the entries.
	exc  sync.Map
	excN atomic.Int64

	Steered  atomic.Uint64
	Unknown  atomic.Uint64
	Buffered atomic.Uint64

	// steerTestHook, when non-nil, runs between steer's lock-free lookup
	// and the migration slow path's locked re-check. Tests use it to
	// complete a migration inside that window deterministically; nil in
	// production.
	steerTestHook func()
}

// demuxKey is a steering key: a downlink UE address, or an uplink TEID
// with bit 32 set so the two spaces never collide. Shifted right by 24
// it indexes Demux.home.
type demuxKey uint64

func keyOf(key uint32, uplink bool) demuxKey {
	if uplink {
		return demuxKey(key) | 1<<32
	}
	return demuxKey(key)
}

func (k demuxKey) uplink() bool { return k>>32 != 0 }

// route is an exception entry: the slice serving the key and, while its
// user migrates, the buffer its packets divert to. Entries are replaced,
// never changed, except buf.pkts, which mu guards.
type route struct {
	slice int32
	buf   *migBuffer
}

type migBuffer struct {
	pkts []*pkt.Buf
}

func newDemux(ids []int) *Demux {
	d := &Demux{byIMSI: make(map[uint64]int)}
	for i := range d.home {
		d.home[i] = steerUnknown
	}
	for i, id := range ids {
		d.home[keyOf(HomeTEID(id, 0), true)>>24] = int32(i)
		d.home[keyOf(HomeUEAddr(id, 0), false)>>24] = int32(i)
	}
	return d
}

// lookup is the per-packet rule: the key's exception if it has one
// (steerMigrating while its user migrates), else its home.
func (d *Demux) lookup(k demuxKey) int32 {
	if d.excN.Load() == 0 {
		return d.home[k>>24]
	}
	if s, mb := d.owner(k); mb == nil {
		return s
	}
	return steerMigrating
}

// owner is the slice k routes to, and its migration buffer if any.
func (d *Demux) owner(k demuxKey) (int32, *migBuffer) {
	if v, ok := d.exc.Load(k); ok {
		r := v.(*route)
		return r.slice, r.buf
	}
	return d.home[k>>24], nil
}

// put sets k's exception to (slice, buf), or removes it when that says
// no more than k's home does (slice < 0: steer k home), and returns the
// entry it replaced. Callers hold mu.
func (d *Demux) put(k demuxKey, slice int32, buf *migBuffer) *route {
	var old *route
	if v, ok := d.exc.Load(k); ok {
		old = v.(*route)
	}
	if buf == nil && (slice < 0 || slice == d.home[k>>24]) {
		if old != nil {
			d.exc.Delete(k)
			d.excN.Add(-1)
		}
		return old
	}
	if old == nil {
		d.excN.Add(1)
	}
	d.exc.Store(k, &route{slice: slice, buf: buf})
	return old
}

// reroute points a user's nonzero keys at slice (slice < 0: home). A key
// mid-migration is left alone: the migration's end sets its route.
// Callers hold mu.
func (d *Demux) reroute(teid, ueIP uint32, slice int32) {
	for _, k := range [2]demuxKey{keyOf(teid, true), keyOf(ueIP, false)} {
		if _, mb := d.owner(k); uint32(k) != 0 && mb == nil {
			d.put(k, slice, nil)
		}
	}
}

// Register maps a user's signaling key to a slice and steers its data
// keys there: an exception for a key off its home, none for one on it.
func (d *Demux) Register(teid, ueIP uint32, imsi uint64, slice int) {
	d.mu.Lock()
	d.reroute(teid, ueIP, int32(slice))
	if imsi != 0 {
		d.byIMSI[imsi] = slice
	}
	d.mu.Unlock()
}

// Unregister removes a user's signaling key and data-key exceptions;
// its data keys steer to their home again, if they have one.
func (d *Demux) Unregister(teid, ueIP uint32, imsi uint64) {
	d.mu.Lock()
	d.reroute(teid, ueIP, -1)
	delete(d.byIMSI, imsi)
	d.mu.Unlock()
}

// LookupSlice reports the slice an uplink TEID steers to (the paper's
// LookUpSlice function): its exception, else its home.
func (d *Demux) LookupSlice(teid uint32) (int, bool) {
	s, _ := d.owner(keyOf(teid, true))
	return int(s), s >= 0
}

// LookupSliceByIP reports the slice a downlink UE address steers to.
func (d *Demux) LookupSliceByIP(ip uint32) (int, bool) {
	s, _ := d.owner(keyOf(ip, false))
	return int(s), s >= 0
}

// LookupSliceByIMSI resolves the slice for signaling traffic.
func (d *Demux) LookupSliceByIMSI(imsi uint64) (int, bool) {
	d.mu.Lock()
	s, ok := d.byIMSI[imsi]
	d.mu.Unlock()
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
	n.steer(keyOf(teid, true), b)
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
	n.steer(keyOf(flow.Dst, false), b)
}

func (n *Node) steer(k demuxKey, b *pkt.Buf) {
	d := n.demux
	s := d.lookup(k)
	if s == steerMigrating {
		if s = d.divert(k, b); s == steerMigrating {
			return
		}
	}
	if s == steerUnknown {
		d.Unknown.Add(1)
		b.Free()
		return
	}
	if !n.slices[s].enqueue(b, k.uplink()) {
		b.Free() // ring full: tail drop
		return
	}
	d.Steered.Add(1)
}

// divert is the migration slow path. Under mu, a packet whose user still
// migrates joins the user's buffer until the transfer completes (§4.3:
// "the PEPC scheduler buffers the packets which are undergoing migration
// ... per-user migration queues, which are drained once a user state is
// migrated") and steerMigrating is returned; if the migration ended
// since the lock-free lookup, the key's settled route is.
func (d *Demux) divert(k demuxKey, b *pkt.Buf) int32 {
	if d.steerTestHook != nil {
		d.steerTestHook()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, mb := d.owner(k)
	if mb == nil {
		return s
	}
	mb.pkts = append(mb.pkts, b)
	d.Buffered.Add(1)
	return steerMigrating
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
	teid, ueIP := ueKeys(ue)
	up, down := keyOf(teid, true), keyOf(ueIP, false)

	// 1. Start buffering: packets for this user divert to per-user
	// queues.
	d.mu.Lock()
	if s, mb := d.owner(up); s != int32(src) || mb != nil {
		d.mu.Unlock()
		sc.MigrationsFailed.Add(1)
		return ErrNotRegistered
	}
	d.put(up, int32(src), &migBuffer{})
	d.put(down, int32(src), &migBuffer{})
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
		sc.endMigration(imsi, up, down, src)
		sc.MigrationsFailed.Add(1)
		return err
	}

	// Serialize through the state-transfer encoding: the same bytes an
	// inter-node transfer would ship.
	var msg StateTransferMessage
	msg.IMSI = imsi
	var cs2 state.ControlState
	var cnt2 state.CounterState
	var lv2 state.QoSLevels
	if _, err = state.MarshalSnapshotLevels(msg.Data[:], &cs, &cnt, &lv); err == nil {
		err = state.UnmarshalSnapshotLevels(msg.Data[:], &cs2, &cnt2, &lv2)
	}

	// 3. Install into the target slice (on its control thread).
	if err == nil {
		n.slices[dst].ctrl.exec(func() {
			err = n.slices[dst].ctrl.installLevels(cs2, cnt2, lv2, sim.Now())
		})
	}
	if err != nil {
		// The user has left the source: put it back, QoS levels and all,
		// before its buffered packets replay there; err, which stopped
		// the migration, is the error to report.
		n.slices[src].ctrl.exec(func() {
			_ = n.slices[src].ctrl.installLevels(cs, cnt, lv, sim.Now())
		})
		sc.endMigration(imsi, up, down, src)
		sc.MigrationsFailed.Add(1)
		return err
	}

	// 4. Remap the demux and drain the buffered packets to the new
	// slice.
	sc.endMigration(imsi, up, down, dst)
	sc.Migrations.Add(1)
	return nil
}

// endMigration routes a migrating user to slice — the target once the
// transfer is done, the source when it failed — and replays the packets
// buffered meanwhile there.
func (sc *Scheduler) endMigration(imsi uint64, up, down demuxKey, slice int) {
	d := sc.n.demux
	d.mu.Lock()
	d.byIMSI[imsi] = slice
	old := [2]*route{d.put(up, int32(slice), nil), d.put(down, int32(slice), nil)}
	d.mu.Unlock()
	for i, r := range old {
		if r == nil || r.buf == nil {
			continue
		}
		for _, b := range r.buf.pkts {
			if !sc.n.slices[slice].enqueue(b, i == 0) {
				b.Free()
			}
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
	n.demux.Unregister(cs.UplinkTEID, cs.UEAddr, imsi)
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
	teid, ueIP := ueKeys(ue)
	var err error
	s.ctrl.exec(func() { err = s.ctrl.Detach(imsi) })
	if err != nil {
		return err
	}
	n.demux.Unregister(teid, ueIP, imsi)
	return nil
}
