package main

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"pepc"
	"pepc/internal/gtp"
	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/sctp"
	"pepc/internal/workload"
)

// sessionRequest is the canonical establishment: uplink PDR by F-TEID
// with outer header removal, downlink PDR by UE address, a FAR wrapping
// downlink toward the gNB, and one QER with the given MBRs.
func sessionRequest(teid, ueAddr, gnbTEID, gnbAddr uint32, upKbps, downKbps uint64) *pfcp.SessionRequest {
	return &pfcp.SessionRequest{
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
		CreateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: upKbps, MBRDownlinkKbps: downKbps}},
	}
}

// TestPepcdN4 is the UPF-mode integration test: pepcd's N4 listener and
// wire planes on real loopback UDP, driven by a pfcp.Client the way
// cmd/smfsim drives it. The SMF establishes a session (PDR/FAR/QER);
// uplink GTP-U to the PDR's F-TEID decapsulates out to the SGi sink;
// downlink to the UE address comes back wrapped in the FAR's tunnel; a
// modification rewrites the tunnel TEID and drops the QER rate until
// policing bites; deletion makes the F-TEID unroutable again.
func TestPepcdN4(t *testing.T) {
	sgiSink, sgi := sgiSink(t)
	cfg := testConfig(1, 1, sgi)
	cfg.n4 = "127.0.0.1:0"
	d := startDaemon(t, cfg)
	node, upf, stats := d.node, d.upf, d.stats

	// SMF side: associate, establish.
	smf, err := pfcp.Dial(d.n4.LocalAddrPort().String(), pkt.IPv4Addr(10, 255, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer smf.Close()
	smf.SetRetransmit(200*time.Millisecond, 5)
	if err := smf.Associate(); err != nil {
		t.Fatalf("associate: %v", err)
	}
	if err := smf.Heartbeat(); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}

	const (
		teid    = 0x5E10_0001
		gnbTEID = 0xD000_0001
	)
	ueAddr := pkt.IPv4Addr(45, 1, 0, 1)
	gnbAddr := uint32(0xC0A83201) // 192.168.50.1, the outer src our gNB socket claims
	seid, err := smf.Establish(sessionRequest(teid, ueAddr, gnbTEID, gnbAddr, 50_000, 100_000))
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	if got := upf.Sessions(); got != 1 {
		t.Fatalf("sessions = %d", got)
	}

	// gNB side: uplink GTP-U to the PDR's F-TEID, outer src = the FAR's
	// tunnel address so the rx path learns where downlink goes.
	dconn, snd := dialGTPU(t, d)
	defer snd.Close()
	users := []workload.User{{IMSI: 1, UplinkTEID: teid, UEAddr: ueAddr}}
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: gnbAddr}, users)
	uplink := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := snd.Queue(gen.NextUplink(), netip.AddrPort{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := snd.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	dp := node.Slice(0).Data()

	// The establishment's reply is out, so its index update must already
	// be where the very first burst finds it: the lane syncs after its
	// read returns and before it steers what the read brought.
	const first = 16
	uplink(first)
	waitFor(t, 10*time.Second, "the first burst to be accounted for", func() bool {
		return dp.Forwarded.Load()+dp.Missed.Load()+node.Demux().Unknown.Load() >= first
	})
	if dp.Forwarded.Load() != first {
		t.Fatalf("first burst after establish: forwarded=%d missed=%d unknown=%d, want all %d forwarded",
			dp.Forwarded.Load(), dp.Missed.Load(), node.Demux().Unknown.Load(), first)
	}

	// Decapped uplink reaches the SGi sink as plain IP from the UE.
	buf := make([]byte, 2048)
	sgiSink.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := sgiSink.Read(buf)
	if err != nil {
		t.Fatalf("nothing reached the SGi sink: %v (tx=%d errs=%d noroute=%d)",
			err, d.group.Stats().TxPackets, stats.egressErrs.Load(), stats.egressNoRoute.Load())
	}
	var ip pkt.IPv4
	if err := ip.DecodeFromBytes(buf[:n]); err != nil {
		t.Fatalf("SGi sink got a non-IP datagram: %v", err)
	}
	if ip.Src != ueAddr {
		t.Fatalf("SGi sink datagram src %08x, want UE %08x", ip.Src, ueAddr)
	}

	// Downlink injected at the SGi side comes back wrapped in the FAR's
	// tunnel toward this socket (the rx path learned gnbAddr → here).
	readDownlinkTEID := func() uint32 {
		t.Helper()
		down := gen.DownlinkFor(users[0])
		if _, err := sgiSink.WriteToUDPAddrPort(down.Bytes(), d.group.LocalAddrPort()); err != nil {
			t.Fatal(err)
		}
		down.Free()
		dl := make([]byte, 2048)
		dconn.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := dconn.Read(dl)
		if err != nil {
			t.Fatalf("downlink never reached the gNB endpoint: %v (noroute=%d)", err, stats.egressNoRoute.Load())
		}
		teid, _, err := gtp.ParseOuter(dl[:n])
		if err != nil {
			t.Fatalf("downlink at the gNB endpoint is not GTP-U: %v", err)
		}
		return teid
	}
	if got := readDownlinkTEID(); got != gnbTEID {
		t.Fatalf("downlink TEID %#x, want the FAR's %#x", got, gnbTEID)
	}

	// Modification: rewrite the tunnel TEID (same endpoint) and slash the
	// uplink rate so policing becomes observable.
	if err := smf.Modify(&pfcp.SessionRequest{
		SEID: seid,
		UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
			OuterHeaderCreation: true, TEID: gnbTEID + 1, Addr: gnbAddr}},
		UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 64, MBRDownlinkKbps: 64}},
	}); err != nil {
		t.Fatalf("modify: %v", err)
	}

	// The probe that follows the modification's reply already leaves in
	// the new tunnel — no polling, no grace period.
	if got := readDownlinkTEID(); got != gnbTEID+1 {
		t.Fatalf("first downlink after modify carries TEID %#x, want the updated FAR's %#x", got, gnbTEID+1)
	}

	// Policing: at 64 kbps the uplink bursts must start dying in the
	// token bucket.
	dropped0 := dp.Dropped.Load()
	polDeadline := time.Now().Add(10 * time.Second)
	for dp.Dropped.Load() == dropped0 {
		if time.Now().After(polDeadline) {
			t.Fatalf("no policing drops at 64 kbps (forwarded=%d)", dp.Forwarded.Load())
		}
		uplink(16)
		time.Sleep(time.Millisecond)
	}

	// Deletion: the session, its user and its steering entry are gone by
	// the time the reply is; the next uplink for the old F-TEID is unknown
	// at the demux.
	if err := smf.Delete(seid); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := upf.Sessions(); got != 0 {
		t.Fatalf("sessions after delete = %d", got)
	}
	settled := func() uint64 {
		return dp.Forwarded.Load() + dp.Dropped.Load() + dp.Missed.Load() + node.Demux().Unknown.Load()
	}
	before, unknown0 := settled(), node.Demux().Unknown.Load()
	uplink(8)
	waitFor(t, 10*time.Second, "the post-delete burst to be accounted for", func() bool { return settled() >= before+8 })
	if got := node.Demux().Unknown.Load() - unknown0; got != 8 {
		t.Fatalf("uplink for a deleted session: %d of 8 unknown at the demux", got)
	}
}

// TestPepcdConcurrentControl drives one slice from five control
// producers at once, over real sockets: four eNodeB associations (one
// UDP socket each) attach, path-switch and release their own UEs while
// an SMF establishes, modifies and deletes sessions against the same
// slice. It passes on what the wire shows: every S1AP procedure
// completes, every PFCP reply is accepted, one uplink packet per UE
// still attached comes out forwarded, and the slice holds exactly the
// live UEs plus the live sessions.
func TestPepcdConcurrentControl(t *testing.T) {
	const (
		enbs        = 4
		uesPerENB   = 12
		sessions    = 24
		sessionTEID = 0x5E40_0000
	)
	_, sgi := sgiSink(t)
	cfg := testConfig(1, 1, sgi)
	cfg.n4 = "127.0.0.1:0"
	d := startDaemon(t, cfg)
	node := d.node

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		live []workload.User
	)
	for e := 0; e < enbs; e++ {
		conn, err := net.Dial("udp", d.s1ap.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		assoc, err := pepc.SCTPDial(sctp.NewUDPWire(conn), pepc.SCTPConfig{Tag: uint32(0x200 + e)})
		if err != nil {
			t.Fatalf("eNodeB %d: sctp dial: %v", e, err)
		}
		defer assoc.Close()
		base := pepc.NewENB(0xC0A83201+uint32(e), 1, uint32(0x10+e), assoc)
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < uesPerENB; i++ {
				ue := pepc.NewUE(uint64(e*uesPerENB + i + 1))
				if err := base.Attach(ue); err != nil {
					t.Errorf("eNodeB %d: attach %d: %v", e, ue.IMSI, err)
					return
				}
				if err := base.PathSwitch(ue); err != nil {
					t.Errorf("eNodeB %d: path switch %d: %v", e, ue.IMSI, err)
					return
				}
				if i%2 == 1 {
					if err := base.Release(ue); err != nil {
						t.Errorf("eNodeB %d: release %d: %v", e, ue.IMSI, err)
					}
					continue
				}
				mu.Lock()
				live = append(live, workload.User{IMSI: ue.IMSI, UplinkTEID: ue.UplinkTEID, UEAddr: ue.UEAddr})
				mu.Unlock()
			}
		}(e)
	}

	smf, err := pfcp.Dial(d.n4.LocalAddrPort().String(), pkt.IPv4Addr(10, 255, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer smf.Close()
	smf.SetRetransmit(time.Second, 5)
	if err := smf.Associate(); err != nil {
		t.Fatalf("associate: %v", err)
	}
	liveSessions := 0
	for i := 0; i < sessions; i++ {
		teid := uint32(sessionTEID + i + 1)
		seid, err := smf.Establish(sessionRequest(teid, pkt.IPv4Addr(45, 4, 0, byte(i+1)), 0xD000_0000+uint32(i), 0xC0A83301, 50_000, 100_000))
		if err != nil {
			t.Fatalf("establish %d: %v", i, err)
		}
		if err := smf.Modify(&pfcp.SessionRequest{
			SEID: seid,
			UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
				OuterHeaderCreation: true, TEID: 0xD100_0000 + uint32(i), Addr: 0xC0A83301}},
			UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 20_000, MBRDownlinkKbps: 40_000}},
		}); err != nil {
			t.Fatalf("modify %d: %v", i, err)
		}
		if i%2 == 1 {
			if err := smf.Delete(seid); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
			continue
		}
		liveSessions++
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// A release has no reply on the wire; the population settles once the
	// last one is processed.
	s := node.Slice(0)
	want := len(live) + liveSessions
	waitFor(t, 10*time.Second, "the releases to settle", func() bool { return s.Users() == want })
	if got := d.upf.Sessions(); got != liveSessions {
		t.Fatalf("UPF sessions = %d, want %d", got, liveSessions)
	}

	// One uplink packet per UE still attached, each forwarded.
	_, snd := dialGTPU(t, d)
	defer snd.Close()
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 0xC0A83201}, live)
	for _, u := range live {
		if err := snd.Queue(gen.UplinkFor(u), netip.AddrPort{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := snd.Flush(); err != nil {
		t.Fatal(err)
	}
	dp := s.Data()
	settled := func() uint64 {
		return dp.Forwarded.Load() + dp.Dropped.Load() + dp.Missed.Load() + node.Demux().Unknown.Load()
	}
	waitFor(t, 10*time.Second, "the uplink to be accounted for", func() bool { return settled() >= uint64(len(live)) })
	if f := dp.Forwarded.Load(); f != uint64(len(live)) {
		t.Fatalf("forwarded %d of %d (dropped=%d missed=%d unknown=%d)", f, len(live),
			dp.Dropped.Load(), dp.Missed.Load(), node.Demux().Unknown.Load())
	}
}
