package core

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"pepc/internal/pcef"
	"pepc/internal/pfcp"
	"pepc/internal/sockio"
	"pepc/internal/state"
)

// This file is the UPF side of N4 (PFCP, 29.244): the node terminates an
// SMF's association and maps its sessions onto the existing slice
// machinery. Nothing new is built for the 5G data path — a PFCP session
// IS a PEPC user whose identifiers the SMF assigned:
//
//   - the Access-side PDR's F-TEID becomes the user's uplink TEID (the
//     DataPath's uplink index key) and the PDI UE IP its address (the
//     downlink key), installed through Attach's assigned-identifier path;
//   - the downlink FAR's Outer Header Creation becomes the
//     DownlinkTEID/ENBAddr pair the data plane stamps into its cached
//     GTP-U encap template;
//   - QER maximum bit rates become the AMBR the per-user token buckets
//     enforce (29.244 carries kbps; the slice polices bits/s);
//   - QER gates become PCEF drop rules keyed on the UE address, and SDF
//     filters become dedicated-bearer TFTs (mirrored for uplink-side
//     PDRs) with the referenced QER's MBR as the bearer bound.
//
// Establishment runs the attach inline (the response must report the
// outcome), but modification and deletion ride the same batched
// signaling path the 4G procedures use: each request enqueues a SigEvent
// (SigS1Handover for FAR rewrites, SigQoSUpdate for QER rewrites,
// SigDetach for deletion) and a transport-driven Flush drains every
// touched slice once per datagram burst, so N consecutive 5G
// modifications cost one grouped procedure batch, not N table walks.
//
// The UPF is single-goroutine (the N4 listener); only the Stats counters
// are cross-thread. Its slices may have other control producers (S1AP
// associations), so every state change it makes runs through the slice's
// exec, one procedure or one drain at a time, never a whole burst.

// n4IMSIBase is the synthetic identity space for PFCP sessions. PFCP
// carries no IMSI — the SMF owns subscriber identity — but every slice
// context is keyed by one, so the UPF mints them from its session ids,
// far above any provisioned 15-digit IMSI.
const n4IMSIBase uint64 = 0x5F50 << 48

// n4RuleBase keys the PCEF rules the UPF installs for QER gates, clear
// of the PCRF's rule-id space: gate slot g owns n4RuleBase+2g (uplink)
// and n4RuleBase+2g+1 (downlink).
const n4RuleBase uint32 = 0x5F50_0000

// n4Session is one PFCP session's binding onto a slice user.
type n4Session struct {
	localSEID uint64 // the UPF's session id (what the SMF addresses)
	smfSEID   uint64 // the SMF's session id (what responses address)
	imsi      uint64
	slice     int
	teid      uint32 // uplink F-TEID, registered with the demux
	ueAddr    uint32
	bearers   uint8  // dedicated bearers installed from SDF filters
	gate      uint32 // gate-rule slot, 0 until a gate first closes
	gateUL    bool   // PCEF drop rules currently installed
	gateDL    bool
}

// N4Stats snapshots the UPF's N4 message counters.
type N4Stats struct {
	Associations uint64
	Heartbeats   uint64
	Established  uint64
	Modified     uint64
	Deleted      uint64
	Rejected     uint64
	Malformed    uint64
}

// UPF terminates PFCP for a node, mapping SMF-driven sessions onto
// slices round-robin. Construct with NewUPF; run Serve over a socket, or
// drive it by hand with Handle (one datagram in, at most one response
// out) and Flush (once per burst).
type UPF struct {
	node     *Node
	nodeAddr uint32
	recovery uint32

	nextSEID  uint64
	nextSlice int
	nextGate  uint32   // highest gate-rule slot handed out
	freeGates []uint32 // slots released by deleted sessions
	sessions  map[uint64]*n4Session
	assoc     map[uint32]uint32 // SMF node id -> its recovery stamp

	// dirty marks slices with enqueued-but-undrained signaling.
	dirty    []bool
	dirtyAny bool

	live         atomic.Int64
	associations atomic.Uint64
	heartbeats   atomic.Uint64
	established  atomic.Uint64
	modified     atomic.Uint64
	deleted      atomic.Uint64
	rejected     atomic.Uint64
	malformed    atomic.Uint64
}

// NewUPF builds the node's N4 endpoint. nodeAddr is the UPF's node
// identity (IPv4, host order) reported in association responses.
func NewUPF(node *Node, nodeAddr uint32) *UPF {
	return &UPF{
		node:     node,
		nodeAddr: nodeAddr,
		recovery: uint32(time.Now().Unix()),
		sessions: make(map[uint64]*n4Session),
		assoc:    make(map[uint32]uint32),
		dirty:    make([]bool, node.NumSlices()),
	}
}

// Stats snapshots the message counters (any thread).
func (u *UPF) Stats() N4Stats {
	return N4Stats{
		Associations: u.associations.Load(),
		Heartbeats:   u.heartbeats.Load(),
		Established:  u.established.Load(),
		Modified:     u.modified.Load(),
		Deleted:      u.deleted.Load(),
		Rejected:     u.rejected.Load(),
		Malformed:    u.malformed.Load(),
	}
}

// Sessions returns the live session count (any thread).
func (u *UPF) Sessions() int { return int(u.live.Load()) }

// Handle processes one PFCP datagram and appends the response (if the
// message warrants one) to dst, returning the extended slice. A nil
// growth means nothing to send. Modification and deletion enqueue their
// state changes; call Flush after a burst of Handles to drain them as
// grouped batches before the responses hit the wire.
func (u *UPF) Handle(data, dst []byte) []byte {
	m, err := pfcp.Unmarshal(data)
	if err != nil {
		u.malformed.Add(1)
		return dst
	}
	switch m.Type {
	case pfcp.MsgHeartbeatRequest:
		u.heartbeats.Add(1)
		r := pfcp.BuildHeartbeatResponse(m.Seq, u.recovery)
		return r.Marshal(dst)
	case pfcp.MsgAssociationSetupRequest:
		return u.handleAssociation(&m, dst)
	case pfcp.MsgSessionEstablishmentRequest:
		return u.handleEstablishment(&m, dst)
	case pfcp.MsgSessionModificationRequest:
		return u.handleModification(&m, dst)
	case pfcp.MsgSessionDeletionRequest:
		return u.handleDeletion(&m, dst)
	}
	// Responses and unknown types: nothing to say.
	return dst
}

// Flush drains the batched signaling of every slice touched since the
// last flush. Call once per datagram burst, after the Handles.
func (u *UPF) Flush() {
	if !u.dirtyAny {
		return
	}
	for i, d := range u.dirty {
		if !d {
			continue
		}
		u.dirty[i] = false
		cp := u.node.Slice(i).Control()
		cp.exec(func() {
			for cp.DrainSignaling(0) > 0 {
			}
		})
	}
	u.dirtyAny = false
}

// n4Batch bounds how many PFCP datagrams one Serve pass gathers: N
// modifications landing together drain as one grouped procedure batch.
// n4MaxDatagram sizes a receive slot to PFCP's 16-bit length field, so
// the batch is kept to what a megabyte of slots holds.
const (
	n4Batch       = 16
	n4MaxDatagram = 64 << 10
)

// Serve is the N4 service loop, on the calling goroutine: one vectorized
// read blocks for the first datagram and returns whatever else is
// queued, each is handled, the batched signaling of every touched slice
// is flushed once, and only then do the responses leave in one
// vectorized write — so a response never races the state change it
// reports. Steady state the transport allocates nothing. It returns the
// read error that ended it: close conn to stop it at once, or set conn's
// read deadline in the past to stop it after the burst in hand is
// answered.
func (u *UPF) Serve(conn *sockio.Conn) error {
	in := make([]sockio.Message, n4Batch)
	slab := make([]byte, n4Batch*n4MaxDatagram)
	for i := range in {
		in[i].Buf = slab[i*n4MaxDatagram : (i+1)*n4MaxDatagram]
	}
	out := make([]sockio.Message, 0, n4Batch)
	var resp []byte
	for {
		n, err := conn.ReadBatch(in)
		if err != nil {
			return err
		}
		out, resp = out[:0], resp[:0]
		for i := range in[:n] {
			mark := len(resp)
			resp = u.Handle(in[i].Buf[:in[i].N], resp)
			if len(resp) > mark {
				// Should a later Handle grow resp into a new array, this
				// slice keeps the old one alive until the write below.
				out = append(out, sockio.Message{Buf: resp[mark:], N: len(resp) - mark, Addr: in[i].Addr})
			}
		}
		u.Flush()
		for rest := out; len(rest) > 0; {
			sent, err := conn.WriteBatch(rest)
			if err != nil {
				sent++ // that peer is unreachable; the others still get answers
			}
			rest = rest[min(sent, len(rest)):]
		}
	}
}

// enqueue submits ev to slice idx's control ring. A ring that refuses
// it cannot push back mid-burst (the request was already validated and
// will be answered accepted), so the slice drains what is queued and
// applies ev itself, in order, before the answer leaves.
func (u *UPF) enqueue(idx int, ev SigEvent) {
	cp := u.node.Slice(idx).Control()
	if !cp.sigQ.Enqueue(ev) {
		cp.exec(func() {
			for cp.DrainSignaling(0) > 0 {
			}
			_ = cp.apply(ev)
		})
	}
	u.dirty[idx] = true
	u.dirtyAny = true
}

func (u *UPF) handleAssociation(m *pfcp.Message, dst []byte) []byte {
	cause := pfcp.CauseAccepted
	id := pfcp.FindIE(m.IEs, pfcp.IENodeID)
	if id == nil {
		cause = pfcp.CauseMandatoryIEMissing
	} else if addr, err := pfcp.ParseNodeID(id); err != nil {
		cause = pfcp.CauseMandatoryIEMissing
	} else {
		var rec uint32
		if r := pfcp.FindIE(m.IEs, pfcp.IERecoveryTimeStamp); r != nil && len(r.Value) >= 4 {
			rec = binary.BigEndian.Uint32(r.Value)
		}
		u.assoc[addr] = rec
		u.associations.Add(1)
	}
	if cause != pfcp.CauseAccepted {
		u.rejected.Add(1)
	}
	r := pfcp.BuildAssociationSetupResponse(m.Seq, u.nodeAddr, cause, u.recovery)
	return r.Marshal(dst)
}

// sessionReject appends a session-level rejection.
func (u *UPF) sessionReject(respType uint8, seq uint32, seid uint64, cause uint8, dst []byte) []byte {
	u.rejected.Add(1)
	r := pfcp.BuildSessionResponse(respType, seq, seid, cause, 0, 0)
	return r.Marshal(dst)
}

func (u *UPF) handleEstablishment(m *pfcp.Message, dst []byte) []byte {
	const resp = pfcp.MsgSessionEstablishmentResponse
	if len(u.assoc) == 0 {
		return u.sessionReject(resp, m.Seq, 0, pfcp.CauseNoEstablishedAssociation, dst)
	}
	req, err := pfcp.ParseSessionRequest(m)
	if err != nil {
		return u.sessionReject(resp, m.Seq, 0, pfcp.CauseMandatoryIEMissing, dst)
	}
	// The minimal viable session: the SMF's F-SEID, an Access-side PDR
	// carrying the uplink F-TEID, and a UE address from any PDI.
	var uplink *pfcp.PDR
	var ueAddr uint32
	for i := range req.CreatePDRs {
		p := &req.CreatePDRs[i]
		if uplink == nil && p.SourceInterface == pfcp.InterfaceAccess && p.TEID != 0 {
			uplink = p
		}
		if ueAddr == 0 && p.UEAddr != 0 {
			ueAddr = p.UEAddr
		}
	}
	if req.FSEID == 0 || uplink == nil || ueAddr == 0 {
		return u.sessionReject(resp, m.Seq, req.FSEID, pfcp.CauseMandatoryIEMissing, dst)
	}

	// Downlink FAR -> encap template endpoint; absent (the gNB tunnel is
	// often completed by a later modification) the tunnel stays half
	// open and downlink drops at egress until it arrives.
	var enbAddr, dlTEID uint32
	for i := range req.CreateFARs {
		f := &req.CreateFARs[i]
		if f.OuterHeaderCreation {
			enbAddr, dlTEID = f.Addr, f.TEID
			break
		}
	}

	// The uplink PDR's QER (or the first) is the session-aggregate rate.
	agg := findQER(req.CreateQERs, uplink.QERID)
	var ambrUL, ambrDL uint64
	if agg != nil {
		ambrUL = agg.MBRUplinkKbps * 1000
		ambrDL = agg.MBRDownlinkKbps * 1000
	}

	// Ordering fence: queued detaches from an earlier burst may still
	// hold this TEID's index entry; drain before re-binding identifiers.
	u.Flush()

	seid := u.nextSEID + 1
	imsi := n4IMSIBase | seid
	idx := u.nextSlice % u.node.NumSlices()
	_, err = u.node.AttachUser(idx, AttachSpec{
		IMSI:               imsi,
		ENBAddr:            enbAddr,
		DownlinkTEID:       dlTEID,
		AMBRUplink:         ambrUL,
		AMBRDownlink:       ambrDL,
		AssignedUplinkTEID: uplink.TEID,
		AssignedUEAddr:     ueAddr,
		Preauthorized:      true,
	})
	if err != nil {
		return u.sessionReject(resp, m.Seq, req.FSEID, pfcp.CauseRequestRejected, dst)
	}
	u.nextSEID = seid
	u.nextSlice++
	s := &n4Session{
		localSEID: seid, smfSEID: req.FSEID, imsi: imsi,
		slice: idx, teid: uplink.TEID, ueAddr: ueAddr,
	}

	// SDF-filtered PDRs become dedicated bearers: TFT from the flow
	// description (mirrored when the PDR detects uplink), MBR from the
	// PDR's own QER when it differs from the session aggregate.
	cp := u.node.Slice(idx).Control()
	for i := range req.CreatePDRs {
		p := &req.CreatePDRs[i]
		if p.SDF == "" {
			continue
		}
		fs, err := pfcp.ParseFlowDesc(p.SDF)
		if err != nil {
			u.teardown(s)
			return u.sessionReject(resp, m.Seq, req.FSEID, pfcp.CauseRequestRejected, dst)
		}
		b := state.Bearer{
			EBI: 6 + s.bearers,
			QCI: 7,
			TFT: filterFromFlowSpec(&fs, ueAddr, p.SourceInterface == pfcp.InterfaceAccess),
		}
		if q := findQER(req.CreateQERs, p.QERID); q != nil && q != agg {
			b.MBRUplink = q.MBRUplinkKbps * 1000
			b.MBRDownlink = q.MBRDownlinkKbps * 1000
		}
		cp.exec(func() { err = cp.AddDedicatedBearer(imsi, b) })
		if err != nil {
			u.teardown(s)
			return u.sessionReject(resp, m.Seq, req.FSEID, pfcp.CauseRequestRejected, dst)
		}
		s.bearers++
	}

	// QER gates -> PCEF drop rules on the UE address.
	if agg != nil {
		if err := u.setGates(s, agg.GateClosedUL, agg.GateClosedDL); err != nil {
			u.teardown(s)
			return u.sessionReject(resp, m.Seq, req.FSEID, pfcp.CauseRequestRejected, dst)
		}
	}

	u.sessions[seid] = s
	u.live.Add(1)
	u.established.Add(1)
	r := pfcp.BuildSessionResponse(resp, m.Seq, req.FSEID, pfcp.CauseAccepted, seid, u.nodeAddr)
	return r.Marshal(dst)
}

func (u *UPF) handleModification(m *pfcp.Message, dst []byte) []byte {
	const resp = pfcp.MsgSessionModificationResponse
	s, ok := u.sessions[m.SEID]
	if !ok {
		return u.sessionReject(resp, m.Seq, 0, pfcp.CauseSessionContextNotFound, dst)
	}
	req, err := pfcp.ParseSessionRequest(m)
	if err != nil {
		return u.sessionReject(resp, m.Seq, s.smfSEID, pfcp.CauseMandatoryIEMissing, dst)
	}
	// FAR rewrites ride the handover batch: same state touched (the
	// serving tunnel endpoint), same grouped procedure.
	for i := range req.UpdateFARs {
		f := &req.UpdateFARs[i]
		if !f.OuterHeaderCreation {
			continue
		}
		u.enqueue(s.slice, SigEvent{
			Kind: SigS1Handover, IMSI: s.imsi,
			ENBAddr: f.Addr, DownlinkTEID: f.TEID,
		})
	}
	for i := range req.UpdateQERs {
		q := &req.UpdateQERs[i]
		u.enqueue(s.slice, SigEvent{
			Kind: SigQoSUpdate, IMSI: s.imsi,
			AMBRUplink:   q.MBRUplinkKbps * 1000,
			AMBRDownlink: q.MBRDownlinkKbps * 1000,
		})
		if err := u.setGates(s, q.GateClosedUL, q.GateClosedDL); err != nil {
			return u.sessionReject(resp, m.Seq, s.smfSEID, pfcp.CauseRequestRejected, dst)
		}
	}
	u.modified.Add(1)
	r := pfcp.BuildSessionResponse(resp, m.Seq, s.smfSEID, pfcp.CauseAccepted, 0, 0)
	return r.Marshal(dst)
}

func (u *UPF) handleDeletion(m *pfcp.Message, dst []byte) []byte {
	const resp = pfcp.MsgSessionDeletionResponse
	s, ok := u.sessions[m.SEID]
	if !ok {
		return u.sessionReject(resp, m.Seq, 0, pfcp.CauseSessionContextNotFound, dst)
	}
	delete(u.sessions, m.SEID)
	u.live.Add(-1)
	u.teardown(s)
	u.deleted.Add(1)
	r := pfcp.BuildSessionResponse(resp, m.Seq, s.smfSEID, pfcp.CauseAccepted, 0, 0)
	return r.Marshal(dst)
}

// teardown removes a session's slice state: gates out of the PCEF,
// steering out of the demux, and the user context through the batched
// detach. The demux unregisters immediately so no new wire packets
// steer to a user queued for removal.
func (u *UPF) teardown(s *n4Session) {
	u.setGates(s, false, false)
	if s.gate != 0 {
		u.freeGates = append(u.freeGates, s.gate)
	}
	u.node.Demux().Unregister(s.teid, s.ueAddr, s.imsi)
	u.enqueue(s.slice, SigEvent{Kind: SigDetach, IMSI: s.imsi})
}

// setGates reconciles the session's QER gate state with the slice PCEF:
// a closed gate is a drop rule on the UE's address in that direction
// (uplink inner packets source it, downlink packets are addressed to it).
// The session takes a gate-rule slot the first time a gate closes and
// keeps it until teardown, so no two live sessions share a rule id. A
// rule the PCEF refuses leaves that gate open and is returned, for the
// caller to reject the request.
func (u *UPF) setGates(s *n4Session, closeUL, closeDL bool) error {
	if s.gate == 0 {
		if !closeUL && !closeDL {
			return nil
		}
		if n := len(u.freeGates); n > 0 {
			s.gate, u.freeGates = u.freeGates[n-1], u.freeGates[:n-1]
		} else {
			u.nextGate++
			s.gate = u.nextGate
		}
	}
	t := u.node.Slice(s.slice).PCEF()
	ulID := n4RuleBase + s.gate<<1
	dlID := ulID + 1
	if closeUL != s.gateUL {
		if closeUL {
			if err := t.Install(pcef.Rule{
				ID: ulID, Precedence: 1, Action: pcef.ActionDrop,
				Filter: pcef.FilterSpec{SrcAddr: s.ueAddr, SrcPrefix: 32},
			}); err != nil {
				return err
			}
		} else {
			t.Remove(ulID)
		}
		s.gateUL = closeUL
	}
	if closeDL != s.gateDL {
		if closeDL {
			if err := t.Install(pcef.Rule{
				ID: dlID, Precedence: 1, Action: pcef.ActionDrop,
				Filter: pcef.FilterSpec{DstAddr: s.ueAddr, DstPrefix: 32},
			}); err != nil {
				return err
			}
		} else {
			t.Remove(dlID)
		}
		s.gateDL = closeDL
	}
	return nil
}

// findQER returns the QER with the given id, the first QER when id is
// zero, or nil.
func findQER(qers []pfcp.QER, id uint32) *pfcp.QER {
	if len(qers) == 0 {
		return nil
	}
	if id == 0 {
		return &qers[0]
	}
	for i := range qers {
		if qers[i].ID == id {
			return &qers[i]
		}
	}
	return nil
}

// filterFromFlowSpec converts a parsed SDF flow description to a bearer
// TFT. The grammar is downlink-oriented (Src remote, Dst UE); mirror
// swaps the sides for uplink-detection PDRs, and Assigned endpoints
// resolve to the session's UE address.
func filterFromFlowSpec(fs *pfcp.FlowSpec, ueAddr uint32, mirror bool) pcef.FilterSpec {
	src, srcPfx := fs.SrcAddr, fs.SrcPrefix
	if fs.SrcAssigned {
		src = ueAddr
	}
	dst, dstPfx := fs.DstAddr, fs.DstPrefix
	if fs.DstAssigned {
		dst = ueAddr
	}
	f := pcef.FilterSpec{
		Proto:     fs.Proto,
		SrcAddr:   src,
		SrcPrefix: srcPfx,
		DstAddr:   dst,
		DstPrefix: dstPfx,
		SrcPortLo: fs.SrcPortLo, SrcPortHi: fs.SrcPortHi,
		DstPortLo: fs.DstPortLo, DstPortHi: fs.DstPortHi,
	}
	if mirror {
		f.SrcAddr, f.DstAddr = f.DstAddr, f.SrcAddr
		f.SrcPrefix, f.DstPrefix = f.DstPrefix, f.SrcPrefix
		f.SrcPortLo, f.DstPortLo = f.DstPortLo, f.SrcPortLo
		f.SrcPortHi, f.DstPortHi = f.DstPortHi, f.SrcPortHi
	}
	return f
}
