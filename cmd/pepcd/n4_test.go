package main

import (
	"net/netip"
	"testing"
	"time"

	"pepc/internal/gtp"
	"pepc/internal/pfcp"
	"pepc/internal/pkt"
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
