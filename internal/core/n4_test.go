package core

import (
	"testing"

	"pepc/internal/fault"
	"pepc/internal/gtp"
	"pepc/internal/pcef"
	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// n4Exchange marshals a PFCP request, runs it through the UPF handler,
// and decodes the response.
func n4Exchange(t *testing.T, u *UPF, m pfcp.Message) pfcp.Message {
	t.Helper()
	resp := u.Handle(m.Marshal(nil), nil)
	if len(resp) == 0 {
		t.Fatalf("no response to message type %d", m.Type)
	}
	r, err := pfcp.Unmarshal(resp)
	if err != nil {
		t.Fatalf("bad response to message type %d: %v", m.Type, err)
	}
	return r
}

// n4Associate runs the association setup an SMF performs before any
// session work.
func n4Associate(t *testing.T, u *UPF) {
	t.Helper()
	r := n4Exchange(t, u, pfcp.BuildAssociationSetupRequest(1, pkt.IPv4Addr(10, 255, 0, 1), 42))
	if c := pfcp.FindIE(r.IEs, pfcp.IECause); c == nil || c.Value[0] != pfcp.CauseAccepted {
		t.Fatalf("association not accepted: %+v", r)
	}
}

// n4Session builds the canonical establishment request: uplink PDR by
// F-TEID with outer header removal, downlink PDR by UE address, a FAR
// wrapping downlink toward the gNB, and an aggregate-rate QER.
func n4SessionReq(smfSEID uint64, teid, ueAddr, gnbAddr, gnbTEID uint32) *pfcp.SessionRequest {
	return &pfcp.SessionRequest{
		FSEID: smfSEID, FSEIDAddr: pkt.IPv4Addr(10, 255, 0, 1),
		NodeID: pkt.IPv4Addr(10, 255, 0, 1),
		CreatePDRs: []pfcp.PDR{
			{ID: 1, Precedence: 100, SourceInterface: pfcp.InterfaceAccess,
				TEID: teid, TEIDAddr: pkt.IPv4Addr(127, 0, 0, 1),
				OuterHeaderRemoval: true, FARID: 2, QERID: 1},
			{ID: 2, Precedence: 100, SourceInterface: pfcp.InterfaceCore,
				UEAddr: ueAddr, FARID: 1, QERID: 1},
		},
		CreateFARs: []pfcp.FAR{
			{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
				OuterHeaderCreation: true, TEID: gnbTEID, Addr: gnbAddr},
			{ID: 2, DestinationInterface: pfcp.InterfaceCore},
		},
		CreateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 50_000, MBRDownlinkKbps: 100_000}},
	}
}

// TestN4SessionLifecycle walks a PFCP session through its whole life
// against the slice machinery: establishment installs the PDR as a
// data-path TEID entry and the FAR as the encap endpoint, packets flow
// both ways, modification rewrites the tunnel and the rate bounds
// through the batched signaling path, and deletion removes every trace.
func TestN4SessionLifecycle(t *testing.T) {
	node := NewNode(SliceConfig{ID: 1, UserHint: 64})
	u := NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	s := node.Slice(0)
	pool := pkt.NewPool(2048, 128)

	const (
		teid    = 0x5E10_0001
		gnbTEID = 0xD000_0001
	)
	ueAddr := pkt.IPv4Addr(45, 1, 0, 1)
	gnbAddr := pkt.IPv4Addr(192, 168, 50, 1)

	// Session requests before an association must be refused.
	est := pfcp.BuildSessionEstablishment(2, n4SessionReq(7, teid, ueAddr, gnbAddr, gnbTEID))
	r := n4Exchange(t, u, est)
	if sr, _ := pfcp.ParseSessionResponse(&r); sr.Cause != pfcp.CauseNoEstablishedAssociation {
		t.Fatalf("pre-association establishment: cause %d, want %d", sr.Cause, pfcp.CauseNoEstablishedAssociation)
	}

	n4Associate(t, u)

	// Establishment: accepted, UPF session id reported, SMF SEID echoed
	// in the header.
	r = n4Exchange(t, u, est)
	sr, err := pfcp.ParseSessionResponse(&r)
	if err != nil || sr.Cause != pfcp.CauseAccepted || sr.FSEID == 0 {
		t.Fatalf("establishment: cause %d fseid %#x err %v", sr.Cause, sr.FSEID, err)
	}
	if r.SEID != 7 {
		t.Fatalf("establishment response header SEID %#x, want the SMF's 7", r.SEID)
	}
	upfSEID := sr.FSEID
	if u.Sessions() != 1 {
		t.Fatalf("sessions = %d", u.Sessions())
	}

	// The PDR became the demux steering entry and the slice user state.
	if idx, ok := node.Demux().LookupSlice(teid); !ok || idx != 0 {
		t.Fatalf("demux lookup by TEID: %d %v", idx, ok)
	}
	ue := s.Control().Lookup(n4IMSIBase | 1)
	if ue == nil {
		t.Fatal("no slice user for the session")
	}
	ue.ReadCtrl(func(c *state.ControlState) {
		if c.UplinkTEID != teid || c.UEAddr != ueAddr {
			t.Fatalf("identifiers: teid %#x addr %#x", c.UplinkTEID, c.UEAddr)
		}
		if c.DownlinkTEID != gnbTEID || c.ENBAddr != gnbAddr {
			t.Fatalf("FAR not mapped: dlteid %#x enb %#x", c.DownlinkTEID, c.ENBAddr)
		}
		if c.AMBRUplink != 50_000_000 || c.AMBRDownlink != 100_000_000 {
			t.Fatalf("QER kbps not scaled to bits/s: %d/%d", c.AMBRUplink, c.AMBRDownlink)
		}
	})

	// Uplink: a GTP-U packet to the PDR's TEID decaps and forwards.
	s.Data().SyncUpdates()
	b := buildUplink(pool, teid, ueAddr, gnbAddr, s.Config().CoreAddr, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if f := s.Data().Forwarded.Load(); f != 1 {
		t.Fatalf("uplink forwarded = %d (dropped=%d missed=%d)", f, s.Data().Dropped.Load(), s.Data().Missed.Load())
	}
	drainEgress(s)

	// Downlink: a plain IP packet to the UE encaps toward the FAR's
	// outer header endpoint.
	d := buildDownlink(pool, ueAddr, 9000)
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{d}, sim.Now())
	out, ok := s.Egress.Dequeue()
	if !ok {
		t.Fatal("downlink produced no egress")
	}
	if outTEID, _, err := gtp.ParseOuter(out.Bytes()); err != nil || outTEID != gnbTEID {
		t.Fatalf("downlink encap TEID %#x err %v, want FAR's %#x", outTEID, err, gnbTEID)
	}
	out.Free()

	// Modification: FAR rewrite (the gNB moved) and a QER rate change,
	// both through the batched signaling path — visible only after the
	// flush, like any enqueued procedure.
	newGNB := pkt.IPv4Addr(192, 168, 51, 1)
	mod := pfcp.BuildSessionModification(3, &pfcp.SessionRequest{
		SEID: upfSEID,
		UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
			OuterHeaderCreation: true, TEID: gnbTEID + 1, Addr: newGNB}},
		UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 20_000, MBRDownlinkKbps: 40_000}},
	})
	r = n4Exchange(t, u, mod)
	if sr, _ := pfcp.ParseSessionResponse(&r); sr.Cause != pfcp.CauseAccepted {
		t.Fatalf("modification: cause %d", sr.Cause)
	}
	u.Flush()
	ue.ReadCtrl(func(c *state.ControlState) {
		if c.DownlinkTEID != gnbTEID+1 || c.ENBAddr != newGNB {
			t.Fatalf("FAR update not applied: dlteid %#x enb %#x", c.DownlinkTEID, c.ENBAddr)
		}
		if c.AMBRUplink != 20_000_000 || c.AMBRDownlink != 40_000_000 {
			t.Fatalf("QER update not applied: %d/%d", c.AMBRUplink, c.AMBRDownlink)
		}
	})
	if h := s.Control().Handovers.Load(); h != 1 {
		t.Fatalf("FAR rewrite did not ride the handover batch: %d", h)
	}
	if q := s.Control().QoSUpdates.Load(); q != 1 {
		t.Fatalf("QER rewrite did not ride the QoS batch: %d", q)
	}

	// Gate closure: an Update QER with the UL gate shut becomes a PCEF
	// drop rule; the next uplink packet dies in classification.
	gated := pfcp.BuildSessionModification(4, &pfcp.SessionRequest{
		SEID:       upfSEID,
		UpdateQERs: []pfcp.QER{{ID: 1, GateClosedUL: true, MBRUplinkKbps: 20_000, MBRDownlinkKbps: 40_000}},
	})
	n4Exchange(t, u, gated)
	u.Flush()
	b = buildUplink(pool, teid, ueAddr, gnbAddr, s.Config().CoreAddr, 80)
	dropped0 := s.Data().Dropped.Load()
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if d := s.Data().Dropped.Load() - dropped0; d != 1 {
		t.Fatalf("gated uplink not dropped (delta %d)", d)
	}

	// Unknown session id: context not found.
	bogus := pfcp.BuildSessionModification(5, &pfcp.SessionRequest{SEID: 0xdead})
	r = n4Exchange(t, u, bogus)
	if sr, _ := pfcp.ParseSessionResponse(&r); sr.Cause != pfcp.CauseSessionContextNotFound {
		t.Fatalf("bogus modification: cause %d", sr.Cause)
	}

	// Deletion: accepted, and after the flush the user, its steering
	// entry and its gate rules are all gone.
	r = n4Exchange(t, u, pfcp.BuildSessionDeletion(6, upfSEID))
	if sr, _ := pfcp.ParseSessionResponse(&r); sr.Cause != pfcp.CauseAccepted {
		t.Fatalf("deletion: cause %d", sr.Cause)
	}
	u.Flush()
	s.Data().SyncUpdates()
	if u.Sessions() != 0 || s.Users() != 0 {
		t.Fatalf("after deletion: %d sessions, %d users", u.Sessions(), s.Users())
	}
	if _, ok := node.Demux().LookupSlice(teid); ok {
		t.Fatal("TEID still steerable after deletion")
	}
	if s.PCEF().Len() != 0 {
		t.Fatalf("gate rules leaked: PCEF has %d rules", s.PCEF().Len())
	}
	b = buildUplink(pool, teid, ueAddr, gnbAddr, s.Config().CoreAddr, 80)
	missed0 := s.Data().Missed.Load()
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if m := s.Data().Missed.Load() - missed0; m != 1 {
		t.Fatalf("post-deletion uplink not missed (delta %d)", m)
	}

	// Deleting again: the context is gone.
	r = n4Exchange(t, u, pfcp.BuildSessionDeletion(7, upfSEID))
	if sr, _ := pfcp.ParseSessionResponse(&r); sr.Cause != pfcp.CauseSessionContextNotFound {
		t.Fatalf("double deletion: cause %d", sr.Cause)
	}
}

// TestN4EstablishmentValidation pins the rejection causes: a session
// without the SMF's F-SEID, without an Access-side F-TEID PDR, or
// without a UE address is refused with Mandatory IE Missing and leaves
// no state behind.
func TestN4EstablishmentValidation(t *testing.T) {
	node := NewNode(SliceConfig{ID: 1, UserHint: 16})
	u := NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	n4Associate(t, u)

	ueAddr := pkt.IPv4Addr(45, 1, 0, 9)
	cases := []struct {
		name string
		req  *pfcp.SessionRequest
	}{
		{"no F-SEID", &pfcp.SessionRequest{
			CreatePDRs: []pfcp.PDR{{ID: 1, SourceInterface: pfcp.InterfaceAccess, TEID: 9, UEAddr: ueAddr}},
		}},
		{"no uplink PDR", &pfcp.SessionRequest{
			FSEID:      3,
			CreatePDRs: []pfcp.PDR{{ID: 2, SourceInterface: pfcp.InterfaceCore, UEAddr: ueAddr}},
		}},
		{"no UE address", &pfcp.SessionRequest{
			FSEID:      4,
			CreatePDRs: []pfcp.PDR{{ID: 1, SourceInterface: pfcp.InterfaceAccess, TEID: 9}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := n4Exchange(t, u, pfcp.BuildSessionEstablishment(2, c.req))
			if sr, _ := pfcp.ParseSessionResponse(&r); sr.Cause != pfcp.CauseMandatoryIEMissing {
				t.Fatalf("cause %d, want %d", sr.Cause, pfcp.CauseMandatoryIEMissing)
			}
		})
	}
	if u.Sessions() != 0 || node.Slice(0).Users() != 0 {
		t.Fatal("rejected establishments leaked state")
	}
}

// TestN4SDFDedicatedBearer maps an SDF-filtered PDR pair onto the TFT
// machinery: the Core-side filter keeps its downlink orientation, the
// Access-side filter is mirrored, and the PDR's own QER becomes the
// bearer's rate bound.
func TestN4SDFDedicatedBearer(t *testing.T) {
	node := NewNode(SliceConfig{ID: 1, UserHint: 16})
	u := NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	n4Associate(t, u)

	ueAddr := pkt.IPv4Addr(45, 1, 0, 2)
	remote := pkt.IPv4Addr(8, 8, 8, 8)
	req := n4SessionReq(11, 0x5E10_0002, ueAddr, pkt.IPv4Addr(192, 168, 50, 1), 0xD000_0002)
	// A voice-like flow pinned by SDF on both directions' PDRs, with a
	// dedicated QER distinct from the session aggregate.
	req.CreatePDRs = append(req.CreatePDRs,
		pfcp.PDR{ID: 3, Precedence: 50, SourceInterface: pfcp.InterfaceCore,
			UEAddr: ueAddr, SDF: "permit out 17 from 8.8.8.8/32 5060 to assigned", FARID: 1, QERID: 2},
		pfcp.PDR{ID: 4, Precedence: 50, SourceInterface: pfcp.InterfaceAccess,
			TEID: 0x5E10_0002, TEIDAddr: pkt.IPv4Addr(127, 0, 0, 1),
			SDF: "permit out 17 from 8.8.8.8/32 5060 to assigned", OuterHeaderRemoval: true, FARID: 2, QERID: 2},
	)
	req.CreateQERs = append(req.CreateQERs, pfcp.QER{ID: 2, MBRUplinkKbps: 1_000, MBRDownlinkKbps: 1_000})

	r := n4Exchange(t, u, pfcp.BuildSessionEstablishment(2, req))
	if sr, _ := pfcp.ParseSessionResponse(&r); sr.Cause != pfcp.CauseAccepted {
		t.Fatalf("establishment: cause %d", sr.Cause)
	}

	ue := node.Slice(0).Control().Lookup(n4IMSIBase | 1)
	ue.ReadCtrl(func(c *state.ControlState) {
		if c.BearerCount != 3 {
			t.Fatalf("bearer count %d, want default + 2 dedicated", c.BearerCount)
		}
		// Core-side PDR: downlink orientation preserved (Src remote, Dst UE).
		dl := c.Bearers[1]
		if dl.TFT.SrcAddr != remote || dl.TFT.DstAddr != ueAddr || dl.TFT.SrcPortLo != 5060 {
			t.Fatalf("downlink TFT wrong: %+v", dl.TFT)
		}
		// Access-side PDR: mirrored for uplink (Src UE, Dst remote).
		ul := c.Bearers[2]
		if ul.TFT.SrcAddr != ueAddr || ul.TFT.DstAddr != remote || ul.TFT.DstPortLo != 5060 {
			t.Fatalf("uplink TFT not mirrored: %+v", ul.TFT)
		}
		if dl.MBRUplink != 1_000_000 || ul.MBRDownlink != 1_000_000 {
			t.Fatalf("bearer MBR not taken from the PDR's QER: %d/%d", dl.MBRUplink, ul.MBRDownlink)
		}
	})
}

// TestN4BatchedModifications pins the batching contract: a burst of
// modifications across many sessions drains as grouped procedures on
// one Flush, not one table walk per request.
func TestN4BatchedModifications(t *testing.T) {
	node := NewNode(SliceConfig{ID: 1, UserHint: 64})
	u := NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	s := node.Slice(0)
	n4Associate(t, u)

	const sessions = 16
	seids := make([]uint64, sessions)
	for i := 0; i < sessions; i++ {
		req := n4SessionReq(uint64(100+i), 0x5E20_0000+uint32(i), pkt.IPv4Addr(45, 2, 0, uint8(i+1)),
			pkt.IPv4Addr(192, 168, 50, 1), 0xD000_0000+uint32(i))
		r := n4Exchange(t, u, pfcp.BuildSessionEstablishment(uint32(2+i), req))
		sr, _ := pfcp.ParseSessionResponse(&r)
		if sr.Cause != pfcp.CauseAccepted {
			t.Fatalf("establishment %d: cause %d", i, sr.Cause)
		}
		seids[i] = sr.FSEID
	}

	// A whole burst of FAR rewrites, then one flush: the backlog drains
	// as one run-grouped batch.
	for i, seid := range seids {
		m := pfcp.BuildSessionModification(uint32(50+i), &pfcp.SessionRequest{
			SEID: seid,
			UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
				OuterHeaderCreation: true, TEID: 0xD100_0000 + uint32(i), Addr: pkt.IPv4Addr(192, 168, 51, 1)}},
		})
		n4Exchange(t, u, m)
	}
	if got := s.Control().SignalBacklog(); got != sessions {
		t.Fatalf("backlog before flush = %d, want %d", got, sessions)
	}
	u.Flush()
	if got := s.Control().Handovers.Load(); got != sessions {
		t.Fatalf("handovers after flush = %d, want %d", got, sessions)
	}
	for i := range seids {
		ue := s.Control().Lookup(n4IMSIBase | uint64(i+1))
		ue.ReadCtrl(func(c *state.ControlState) {
			if c.DownlinkTEID != 0xD100_0000+uint32(i) {
				t.Fatalf("session %d tunnel not rewritten: %#x", i, c.DownlinkTEID)
			}
		})
	}
}

// TestN4RingRefusalStillApplies: a request the signaling ring refuses
// (here every enqueue, by injected overflow) is applied in order on the
// spot rather than lost, so the "accepted" the SMF reads is true: the
// modification rewrites the tunnel and the rate, the deletion removes
// the user.
func TestN4RingRefusalStillApplies(t *testing.T) {
	node := NewNode(SliceConfig{ID: 1, UserHint: 64})
	u := NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	s := node.Slice(0)
	n4Associate(t, u)
	r := n4Exchange(t, u, pfcp.BuildSessionEstablishment(2,
		n4SessionReq(7, 0x5E30_0001, pkt.IPv4Addr(45, 3, 0, 1), pkt.IPv4Addr(192, 168, 50, 1), 0xD000_0001)))
	sr, _ := pfcp.ParseSessionResponse(&r)
	if sr.Cause != pfcp.CauseAccepted {
		t.Fatalf("establishment: cause %d", sr.Cause)
	}
	seid := sr.FSEID

	inj := fault.New(1)
	inj.Arm(fault.RingOverflow, fault.RateMax)
	s.SetFaults(inj)
	accepted := func(what string, m pfcp.Message) {
		t.Helper()
		r := n4Exchange(t, u, m)
		u.Flush()
		if sr, _ := pfcp.ParseSessionResponse(&r); sr.Cause != pfcp.CauseAccepted {
			t.Fatalf("%s: cause %d", what, sr.Cause)
		}
	}

	accepted("modification", pfcp.BuildSessionModification(3, &pfcp.SessionRequest{
		SEID: seid,
		UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
			OuterHeaderCreation: true, TEID: 0xD000_0002, Addr: pkt.IPv4Addr(192, 168, 51, 1)}},
		UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 64, MBRDownlinkKbps: 128}},
	}))
	s.Control().Lookup(n4IMSIBase | 1).ReadCtrl(func(c *state.ControlState) {
		if c.DownlinkTEID != 0xD000_0002 || c.AMBRUplink != 64_000 || c.AMBRDownlink != 128_000 {
			t.Fatalf("accepted modification not applied: dlteid %#x ambr %d/%d", c.DownlinkTEID, c.AMBRUplink, c.AMBRDownlink)
		}
	})

	accepted("deletion", pfcp.BuildSessionDeletion(4, seid))
	if got := s.Users(); got != 0 {
		t.Fatalf("users = %d after an accepted deletion, want 0", got)
	}
}

// TestN4GateRuleIDsUnique: every gated session holds its own PCEF drop
// rule however far apart the session ids are (ids derived from
// SEID<<1 under the rule base would give sessions 1 and 2^19+1 the
// same one), reopening one session's gate leaves the other's closed,
// and a gate whose rule cannot be installed gets the request rejected
// rather than answered accepted and left unenforced.
func TestN4GateRuleIDsUnique(t *testing.T) {
	node := NewNode(SliceConfig{ID: 1, UserHint: 16})
	u := NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	s := node.Slice(0)
	n4Associate(t, u)
	gnb := pkt.IPv4Addr(192, 168, 50, 1)
	cause := func(m pfcp.Message) uint8 {
		t.Helper()
		r := n4Exchange(t, u, m)
		u.Flush()
		sr, _ := pfcp.ParseSessionResponse(&r)
		return sr.Cause
	}
	establish := func(seq uint32, smfSEID uint64, teid, ueAddr uint32, closeUL bool) uint8 {
		t.Helper()
		req := n4SessionReq(smfSEID, teid, ueAddr, gnb, 0xD000_0001)
		req.CreateQERs[0].GateClosedUL = closeUL
		return cause(pfcp.BuildSessionEstablishment(seq, req))
	}
	uplinkDropped := func(ueAddr uint32) bool {
		f := pkt.Flow{Src: ueAddr, Dst: pkt.IPv4Addr(8, 8, 8, 8), SrcPort: 40000, DstPort: 53, Proto: pkt.ProtoUDP}
		return s.PCEF().Snapshot().ClassifyFlow(f).Action == pcef.ActionDrop
	}

	ue1, ue2 := pkt.IPv4Addr(45, 4, 0, 1), pkt.IPv4Addr(45, 4, 0, 2)
	if c := establish(2, 7, 0x5E40_0001, ue1, true); c != pfcp.CauseAccepted {
		t.Fatalf("first gated establishment: cause %d", c)
	}
	// The next session id is 2^19+1: shifted left once it lands on the
	// rule base's own bit 20.
	u.nextSEID = 1 << 19
	if c := establish(3, 8, 0x5E40_0002, ue2, true); c != pfcp.CauseAccepted {
		t.Fatalf("second gated establishment: cause %d", c)
	}
	if n := s.PCEF().Len(); n != 2 {
		t.Fatalf("PCEF holds %d rules for two closed gates, want 2", n)
	}
	if !uplinkDropped(ue1) || !uplinkDropped(ue2) {
		t.Fatalf("closed gates not enforced: ue1 dropped=%v ue2 dropped=%v", uplinkDropped(ue1), uplinkDropped(ue2))
	}

	// Reopening the first session's gate leaves the second one closed.
	if c := cause(pfcp.BuildSessionModification(4, &pfcp.SessionRequest{
		SEID:       1,
		UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 50_000, MBRDownlinkKbps: 100_000}},
	})); c != pfcp.CauseAccepted {
		t.Fatalf("gate-opening modification: cause %d", c)
	}
	if uplinkDropped(ue1) || !uplinkDropped(ue2) {
		t.Fatalf("after reopening ue1: ue1 dropped=%v ue2 dropped=%v", uplinkDropped(ue1), uplinkDropped(ue2))
	}

	// A gate that cannot be installed (its rule id already taken in the
	// PCEF) rejects the establishment and leaves no session behind.
	node = NewNode(SliceConfig{ID: 1, UserHint: 16})
	u = NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	s = node.Slice(0)
	n4Associate(t, u)
	if err := s.PCEF().Install(pcef.Rule{ID: n4RuleBase + 2}); err != nil {
		t.Fatal(err)
	}
	if c := establish(2, 7, 0x5E40_0001, ue1, true); c != pfcp.CauseRequestRejected {
		t.Fatalf("uninstallable gate at establishment: cause %d, want %d", c, pfcp.CauseRequestRejected)
	}
	s.Data().SyncUpdates()
	if u.Sessions() != 0 || s.Users() != 0 || uplinkDropped(ue1) {
		t.Fatalf("rejected establishment left %d sessions, %d users, ue1 dropped=%v", u.Sessions(), s.Users(), uplinkDropped(ue1))
	}
}
