package core

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"sync/atomic"

	"pepc/internal/hss"
	"pepc/internal/nas"
	"pepc/internal/s1ap"
	"pepc/internal/sctp"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// S1APServer terminates one eNodeB's S1-MME association on a slice's
// control thread: it parses S1AP/NAS request messages and drives the
// attach procedure (paper §4.2: "we have built support for S1AP protocol
// ... and NAS messages ... We presently only have support for handling
// the attach procedure over S1AP/NAS"), plus X2 path switch and UE
// context release, which map onto the control plane's handover and
// detach operations.
type S1APServer struct {
	cp    *ControlPlane
	assoc *sctp.Assoc

	sessions    map[uint32]*attachSession // keyed by eNB UE S1AP id
	imsiByMME   map[uint32]uint64         // MME UE id → IMSI after attach
	nextMMEUEID uint32

	// registrar, when set, is told about users entering (register=true)
	// and leaving (false) this slice so the node demux can steer their
	// traffic; Node.ServeS1AP wires it.
	registrar func(teid, ueIP uint32, imsi uint64, register bool)

	// Counters for the control-plane experiments (Figs 10, 11).
	AttachesCompleted atomic.Uint64
	AttachesFailed    atomic.Uint64
	Messages          atomic.Uint64
}

type attachState uint8

const (
	awaitingAuthResponse attachState = iota
	awaitingSecurityMode
	awaitingContextSetup
	awaitingAttachComplete
)

type attachSession struct {
	state   attachState
	imsi    uint64
	enbUEID uint32
	mmeUEID uint32
	vec     hss.Vector
	tai     uint16
	ecgi    uint32
	nasSeq  uint8
	res     AttachResult
}

// S1AP server errors.
var (
	ErrNoProxy = errors.New("core: S1AP attach requires a proxy (HSS)")
)

// NewS1APServer binds a server to a slice control plane and an
// established association.
func NewS1APServer(cp *ControlPlane, assoc *sctp.Assoc) *S1APServer {
	return &S1APServer{
		cp:        cp,
		assoc:     assoc,
		sessions:  make(map[uint32]*attachSession),
		imsiByMME: make(map[uint32]uint64),
	}
}

// SetRegistrar installs the demux registration callback.
func (srv *S1APServer) SetRegistrar(fn func(teid, ueIP uint32, imsi uint64, register bool)) {
	srv.registrar = fn
}

// Serve processes messages until the association closes or stop closes.
// It returns the association's terminal error (ErrClosed on clean
// shutdown).
func (srv *S1APServer) Serve(stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		msg, err := srv.assoc.Recv()
		if err != nil {
			return err
		}
		srv.Messages.Add(1)
		if err := srv.handle(msg.Data); err != nil {
			// Per-message errors are protocol-level (malformed or
			// out-of-state messages); the association survives them.
			continue
		}
	}
}

// HandleOne processes a single raw S1AP message — the synchronous entry
// used by tests and by callers that multiplex associations themselves.
func (srv *S1APServer) HandleOne(data []byte) error {
	srv.Messages.Add(1)
	return srv.handle(data)
}

func (srv *S1APServer) handle(data []byte) error {
	pdu, err := s1ap.Unmarshal(data)
	if err != nil {
		return err
	}
	switch {
	case pdu.Procedure == s1ap.ProcInitialUEMessage && pdu.Type == s1ap.PDUInitiating:
		return srv.onInitialUE(pdu)
	case pdu.Procedure == s1ap.ProcUplinkNASTransport:
		return srv.onUplinkNAS(pdu)
	case pdu.Procedure == s1ap.ProcInitialContextSetup && pdu.Type == s1ap.PDUSuccessful:
		return srv.onContextSetupResponse(pdu)
	case pdu.Procedure == s1ap.ProcPathSwitchRequest && pdu.Type == s1ap.PDUInitiating:
		return srv.onPathSwitch(pdu)
	case pdu.Procedure == s1ap.ProcHandoverPreparation && pdu.Type == s1ap.PDUInitiating:
		return srv.onHandoverRequired(pdu)
	case pdu.Procedure == s1ap.ProcHandoverNotification && pdu.Type == s1ap.PDUInitiating:
		return srv.onHandoverNotify(pdu)
	case pdu.Procedure == s1ap.ProcUEContextRelease:
		return srv.onContextRelease(pdu)
	default:
		return fmt.Errorf("core: unhandled S1AP procedure %d", pdu.Procedure)
	}
}

// onInitialUE starts the attach: authenticate against the HSS and send
// the NAS challenge.
func (srv *S1APServer) onInitialUE(pdu *s1ap.PDU) error {
	m, err := s1ap.ParseInitialUEMessage(pdu)
	if err != nil {
		return err
	}
	attach, err := nas.UnmarshalAttachRequest(m.NASPDU)
	if err != nil {
		return err
	}
	if srv.cp.proxy == nil {
		return ErrNoProxy
	}
	vec, err := srv.cp.proxy.Authenticate(attach.IMSI)
	if err != nil {
		srv.AttachesFailed.Add(1)
		return err
	}
	srv.nextMMEUEID++
	sess := &attachSession{
		state:   awaitingAuthResponse,
		imsi:    attach.IMSI,
		enbUEID: m.ENBUEID,
		mmeUEID: srv.nextMMEUEID,
		vec:     vec,
		tai:     m.TAI,
		ecgi:    m.ECGI,
	}
	srv.sessions[m.ENBUEID] = sess

	challenge := &nas.AuthenticationRequest{RAND: vec.RAND, AUTN: vec.AUTN}
	dl := &s1ap.NASTransport{
		MMEUEID: sess.mmeUEID,
		ENBUEID: sess.enbUEID,
		NASPDU:  challenge.Marshal(),
	}
	return srv.assoc.Send(0, sctp.PPIDS1AP, dl.Marshal())
}

// onUplinkNAS advances the attach FSM on UE responses.
func (srv *S1APServer) onUplinkNAS(pdu *s1ap.PDU) error {
	m, err := s1ap.ParseNASTransport(pdu)
	if err != nil {
		return err
	}
	sess, ok := srv.sessions[m.ENBUEID]
	if !ok {
		return fmt.Errorf("core: NAS for unknown session %d", m.ENBUEID)
	}
	inner, _, _, _, err := nas.UnwrapProtected(m.NASPDU)
	if err != nil {
		return err
	}
	hdr, err := nas.DecodeHeader(inner)
	if err != nil {
		return err
	}
	switch {
	case hdr.Type == nas.MsgAuthenticationResponse && sess.state == awaitingAuthResponse:
		resp, err := nas.UnmarshalAuthenticationResponse(inner)
		if err != nil {
			return err
		}
		if subtle.ConstantTimeCompare(resp.RES[:], sess.vec.XRES[:]) != 1 {
			delete(srv.sessions, m.ENBUEID)
			srv.AttachesFailed.Add(1)
			return errors.New("core: authentication failed (RES mismatch)")
		}
		sess.state = awaitingSecurityMode
		smc := (&nas.SecurityModeCommand{SelectedAlgorithms: 0x12}).Marshal()
		sess.nasSeq++
		prot := nas.MarshalProtected(smc, nas.ComputeMAC(sess.vec.KASME, sess.nasSeq, smc), sess.nasSeq)
		dl := &s1ap.NASTransport{MMEUEID: sess.mmeUEID, ENBUEID: sess.enbUEID, NASPDU: prot}
		return srv.assoc.Send(0, sctp.PPIDS1AP, dl.Marshal())

	case hdr.Type == nas.MsgSecurityModeComplete && sess.state == awaitingSecurityMode:
		// Security established: create the consolidated user state and
		// set up the eNodeB context (attach accept rides inside).
		res, err := srv.cp.Attach(AttachSpec{
			IMSI: sess.imsi,
			TAI:  sess.tai,
			ECGI: sess.ecgi,
		})
		if err != nil {
			delete(srv.sessions, m.ENBUEID)
			srv.AttachesFailed.Add(1)
			return err
		}
		sess.res = res
		sess.state = awaitingContextSetup
		if srv.registrar != nil {
			srv.registrar(res.UplinkTEID, res.UEAddr, sess.imsi, true)
		}
		esm := (&nas.ActivateDefaultBearerRequest{
			EBI: 5, QCI: 9, UEAddr: res.UEAddr,
		}).Marshal()
		accept := (&nas.AttachAccept{
			GUTI: res.GUTI, TAI: sess.tai, TAIList: []uint16{sess.tai}, ESMContainer: esm,
		}).Marshal()
		sess.nasSeq++
		prot := nas.MarshalProtected(accept, nas.ComputeMAC(sess.vec.KASME, sess.nasSeq, accept), sess.nasSeq)
		ics := &s1ap.InitialContextSetupRequest{
			MMEUEID:    sess.mmeUEID,
			ENBUEID:    sess.enbUEID,
			UplinkTEID: res.UplinkTEID,
			CoreAddr:   srv.cp.s.cfg.CoreAddr,
			NASPDU:     prot,
		}
		return srv.assoc.Send(0, sctp.PPIDS1AP, ics.Marshal())

	case hdr.Type == nas.MsgAttachComplete && sess.state == awaitingAttachComplete:
		delete(srv.sessions, m.ENBUEID)
		srv.imsiByMME[sess.mmeUEID] = sess.imsi
		srv.AttachesCompleted.Add(1)
		return nil

	default:
		return fmt.Errorf("core: NAS type %#x in state %d", hdr.Type, sess.state)
	}
}

// onContextSetupResponse records the eNodeB's downlink tunnel endpoint.
func (srv *S1APServer) onContextSetupResponse(pdu *s1ap.PDU) error {
	m, err := s1ap.ParseInitialContextSetupResponse(pdu)
	if err != nil {
		return err
	}
	sess, ok := srv.sessions[m.ENBUEID]
	if !ok || sess.state != awaitingContextSetup {
		return fmt.Errorf("core: unexpected context setup response for %d", m.ENBUEID)
	}
	ue := srv.cp.Lookup(sess.imsi)
	if ue == nil {
		return ErrUserUnknown
	}
	ue.WriteCtrl(func(c *state.ControlState) {
		c.DownlinkTEID = m.DownlinkTEID
		c.ENBAddr = m.ENBAddr
		c.LastActive = sim.Now()
	})
	sess.state = awaitingAttachComplete
	return nil
}

// onPathSwitch applies an X2 handover and acknowledges it.
func (srv *S1APServer) onPathSwitch(pdu *s1ap.PDU) error {
	m, err := s1ap.ParsePathSwitchRequest(pdu)
	if err != nil {
		return err
	}
	imsi, ok := srv.imsiByMME[m.MMEUEID]
	if !ok {
		return fmt.Errorf("core: path switch for unknown MME UE id %d", m.MMEUEID)
	}
	if err := srv.cp.S1Handover(imsi, m.ENBAddr, m.DownlinkTEID, m.ECGI); err != nil {
		return err
	}
	ack := &s1ap.PathSwitchAck{MMEUEID: m.MMEUEID, ENBUEID: m.ENBUEID}
	return srv.assoc.Send(0, sctp.PPIDS1AP, ack.Marshal())
}

// onHandoverRequired starts an S1 handover (source and target eNodeBs
// not directly connected, §3.4 case b): the core validates the UE and
// answers with a handover command; the UE's tunnel state only changes
// when the target eNodeB confirms arrival via Handover Notify.
func (srv *S1APServer) onHandoverRequired(pdu *s1ap.PDU) error {
	m, err := s1ap.ParseHandoverRequired(pdu)
	if err != nil {
		return err
	}
	if _, ok := srv.imsiByMME[m.MMEUEID]; !ok {
		return fmt.Errorf("core: handover for unknown MME UE id %d", m.MMEUEID)
	}
	// Handover command back to the source eNodeB (successful outcome of
	// the preparation procedure).
	cmd := s1ap.PDU{Type: s1ap.PDUSuccessful, Procedure: s1ap.ProcHandoverPreparation}
	cmd.IEs = append(cmd.IEs,
		s1ap.IE{ID: s1ap.IEMMEUES1APID, Data: be32(m.MMEUEID)},
		s1ap.IE{ID: s1ap.IEENBUES1APID, Data: be32(m.ENBUEID)},
		s1ap.IE{ID: s1ap.IETargetENBID, Data: be32(m.TargetENB)},
	)
	return srv.assoc.Send(0, sctp.PPIDS1AP, cmd.Marshal())
}

// onHandoverNotify completes an S1 handover: the target eNodeB reports
// the UE arrived; the control thread rewrites the downlink tunnel state
// (the paper's S1-handover state operation, §4.2).
func (srv *S1APServer) onHandoverNotify(pdu *s1ap.PDU) error {
	m, err := s1ap.ParseHandoverNotify(pdu)
	if err != nil {
		return err
	}
	imsi, ok := srv.imsiByMME[m.MMEUEID]
	if !ok {
		return fmt.Errorf("core: handover notify for unknown MME UE id %d", m.MMEUEID)
	}
	return srv.cp.S1Handover(imsi, m.ENBAddr, m.DownlinkTEID, m.ECGI)
}

func be32(v uint32) []byte {
	return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// onContextRelease detaches the user.
func (srv *S1APServer) onContextRelease(pdu *s1ap.PDU) error {
	m, err := s1ap.ParseUEContextRelease(pdu)
	if err != nil {
		return err
	}
	imsi, ok := srv.imsiByMME[m.MMEUEID]
	if !ok {
		return fmt.Errorf("core: release for unknown MME UE id %d", m.MMEUEID)
	}
	delete(srv.imsiByMME, m.MMEUEID)
	if srv.registrar != nil {
		ue := srv.cp.Lookup(imsi)
		if ue != nil {
			teid, ueIP := ueKeys(ue)
			srv.registrar(teid, ueIP, imsi, false)
		}
	}
	return srv.cp.Detach(imsi)
}
