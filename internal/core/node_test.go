package core

import (
	"sync"
	"testing"
	"time"

	"pepc/internal/enb"
	"pepc/internal/hss"
	"pepc/internal/pcef"
	"pepc/internal/pcrf"
	"pepc/internal/pkt"
	"pepc/internal/sctp"
	"pepc/internal/sim"
	"pepc/internal/state"
)

func newTestNode(t *testing.T, slices int) *Node {
	t.Helper()
	cfgs := make([]SliceConfig, slices)
	for i := range cfgs {
		cfgs[i] = SliceConfig{ID: i + 1, UserHint: 256}
	}
	return NewNode(cfgs...)
}

func TestNodeAttachAndSteer(t *testing.T) {
	n := newTestNode(t, 2)
	res0, err := n.AttachUser(0, AttachSpec{IMSI: 100, ENBAddr: 1, DownlinkTEID: 11})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := n.AttachUser(1, AttachSpec{IMSI: 200, ENBAddr: 1, DownlinkTEID: 22})
	if err != nil {
		t.Fatal(err)
	}
	n.Slice(0).Data().SyncUpdates()
	n.Slice(1).Data().SyncUpdates()

	if s, ok := n.Demux().LookupSlice(res0.UplinkTEID); !ok || s != 0 {
		t.Fatalf("demux teid0: %d %v", s, ok)
	}
	if s, ok := n.Demux().LookupSliceByIP(res1.UEAddr); !ok || s != 1 {
		t.Fatalf("demux ip1: %d %v", s, ok)
	}
	if s, ok := n.Demux().LookupSliceByIMSI(200); !ok || s != 1 {
		t.Fatalf("demux imsi: %d %v", s, ok)
	}

	pool := pkt.NewPool(2048, 128)
	up := buildUplink(pool, res0.UplinkTEID, res0.UEAddr, 1, n.Slice(0).Config().CoreAddr, 80)
	n.SteerUplink(up)
	if n.Slice(0).Uplink.Len() != 1 {
		t.Fatal("uplink not steered to slice 0")
	}
	down := buildDownlink(pool, res1.UEAddr, 80)
	n.SteerDownlink(down)
	if n.Slice(1).Downlink.Len() != 1 {
		t.Fatal("downlink not steered to slice 1")
	}
	// Unknown traffic counts and frees.
	bogus := buildDownlink(pool, pkt.IPv4Addr(1, 2, 3, 4), 80)
	n.SteerDownlink(bogus)
	if n.Demux().Unknown.Load() != 1 {
		t.Fatalf("unknown = %d", n.Demux().Unknown.Load())
	}
}

func TestMigrationMovesStateAndCounters(t *testing.T) {
	n := newTestNode(t, 2)
	res, err := n.AttachUser(0, AttachSpec{IMSI: 77, ENBAddr: 5, DownlinkTEID: 55})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.Slice(0), n.Slice(1)
	src.Data().SyncUpdates()

	// Generate some usage on the source slice first.
	pool := pkt.NewPool(2048, 128)
	for i := 0; i < 5; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, src.Config().CoreAddr, 80)
		src.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	}
	drainEgress(src)

	if err := n.Scheduler().MigrateUser(77, 0, 1); err != nil {
		t.Fatal(err)
	}
	if n.Scheduler().Migrations.Load() != 1 {
		t.Fatal("migration not counted")
	}
	// Source no longer owns the user.
	if src.Control().Lookup(77) != nil {
		t.Fatal("user still on source")
	}
	ue := dst.Control().Lookup(77)
	if ue == nil {
		t.Fatal("user not on target")
	}
	var cs state.ControlState
	var cnt state.CounterState
	ue.ReadCtrl(func(c *state.ControlState) { cs = *c })
	ue.ReadCounters(func(c *state.CounterState) { cnt = *c })
	if cs.UplinkTEID != res.UplinkTEID || cs.UEAddr != res.UEAddr || cs.DownlinkTEID != 55 {
		t.Fatalf("identifiers changed in flight: %+v", cs)
	}
	if cnt.UplinkPackets != 5 {
		t.Fatalf("counters lost: %+v", cnt)
	}
	// Demux remapped.
	if s, _ := n.Demux().LookupSlice(res.UplinkTEID); s != 1 {
		t.Fatalf("demux still points at %d", s)
	}
	// Traffic now lands on the target slice.
	src.Data().SyncUpdates()
	dst.Data().SyncUpdates()
	b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, dst.Config().CoreAddr, 80)
	n.SteerUplink(b)
	batch := make([]*pkt.Buf, 1)
	dst.Uplink.DequeueBatch(batch)
	dst.Data().ProcessUplinkBatch(batch, sim.Now())
	if dst.Data().Forwarded.Load() != 1 {
		t.Fatal("post-migration packet not processed by target")
	}
	drainEgress(dst)
}

func TestMigrationBuffersInFlightPackets(t *testing.T) {
	n := newTestNode(t, 2)
	res, err := n.AttachUser(0, AttachSpec{IMSI: 88, ENBAddr: 5, DownlinkTEID: 55})
	if err != nil {
		t.Fatal(err)
	}
	n.Slice(0).Data().SyncUpdates()

	// Manually enter the buffering phase, steer packets, then finish.
	d := n.Demux()
	end := markMigrating(d, res.UplinkTEID, 0)

	pool := pkt.NewPool(2048, 128)
	for i := 0; i < 3; i++ {
		n.SteerUplink(buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, n.Slice(0).Config().CoreAddr, 80))
	}
	if d.Buffered.Load() != 3 {
		t.Fatalf("buffered = %d", d.Buffered.Load())
	}
	if n.Slice(0).Uplink.Len() != 0 {
		t.Fatal("packets leaked to slice during buffering")
	}
	// Complete the buffering phase by hand: remap + drain, as
	// MigrateUser does.
	for _, b := range end(1) {
		n.Slice(1).Uplink.Enqueue(b)
	}
	if n.Slice(1).Uplink.Len() != 3 {
		t.Fatalf("drained %d packets to target", n.Slice(1).Uplink.Len())
	}
}

func TestMigrationErrors(t *testing.T) {
	n := newTestNode(t, 2)
	if err := n.Scheduler().MigrateUser(1, 0, 0); err != ErrSameSlice {
		t.Fatalf("same slice: %v", err)
	}
	if err := n.Scheduler().MigrateUser(1, 0, 5); err != ErrSliceRange {
		t.Fatalf("range: %v", err)
	}
	if err := n.Scheduler().MigrateUser(1, 0, 1); err != ErrUserUnknown {
		t.Fatalf("unknown user: %v", err)
	}
	if n.Scheduler().MigrationsFailed.Load() != 1 {
		t.Fatalf("failed counter = %d", n.Scheduler().MigrationsFailed.Load())
	}
}

func TestMigrationUnderLiveTraffic(t *testing.T) {
	// End-to-end: data workers running on both slices, traffic flowing
	// through the node steering path, migrations firing concurrently. No
	// packet may be lost (forwarded + policed-drops == sent) and the
	// user's counters survive.
	n := newTestNode(t, 2)
	res, err := n.AttachUser(0, AttachSpec{IMSI: 42, ENBAddr: 5, DownlinkTEID: 55})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(s *Slice) {
			defer wg.Done()
			s.RunData(stop)
		}(n.Slice(i))
	}
	// Sink both egress rings.
	var sunk sync.WaitGroup
	var egressCount [2]int
	for i := 0; i < 2; i++ {
		sunk.Add(1)
		go func(i int) {
			defer sunk.Done()
			for {
				b, ok := n.Slice(i).Egress.Dequeue()
				if ok {
					egressCount[i]++
					b.Free()
					continue
				}
				select {
				case <-stop:
					// Final drain.
					for {
						b, ok := n.Slice(i).Egress.Dequeue()
						if !ok {
							return
						}
						egressCount[i]++
						b.Free()
					}
				default:
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(i)
	}

	pool := pkt.NewPool(2048, 128)
	const total = 2000
	where := 0
	for i := 0; i < total; i++ {
		n.SteerUplink(buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, 0, 80))
		if i%500 == 250 {
			// Let the source ring drain before transferring, as it would
			// at line rate; only packets arriving *during* the transfer
			// exercise the migration buffers.
			drainWait := time.After(2 * time.Second)
			for n.Slice(where).Uplink.Len() > 0 {
				select {
				case <-drainWait:
					t.Fatal("source ring never drained")
				default:
					time.Sleep(100 * time.Microsecond)
				}
			}
			target := 1 - where
			if err := n.Scheduler().MigrateUser(42, where, target); err != nil {
				t.Fatalf("migration %d: %v", i, err)
			}
			where = target
		}
	}
	// Let the pipeline drain.
	deadline := time.After(5 * time.Second)
	for {
		f := n.Slice(0).Data().Forwarded.Load() + n.Slice(1).Data().Forwarded.Load()
		m := n.Slice(0).Data().Missed.Load() + n.Slice(1).Data().Missed.Load()
		if f+m >= total {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("pipeline stalled: forwarded+missed=%d of %d", f+m, total)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	sunk.Wait()

	f := n.Slice(0).Data().Forwarded.Load() + n.Slice(1).Data().Forwarded.Load()
	m := n.Slice(0).Data().Missed.Load() + n.Slice(1).Data().Missed.Load()
	if f+m != total {
		t.Fatalf("accounting: forwarded=%d missed=%d total=%d", f, m, total)
	}
	// Misses can only happen in the sync window right after a migration;
	// they must be a small fraction.
	if m > total/10 {
		t.Fatalf("too many post-migration misses: %d", m)
	}
	// Counter continuity: the final owner's counter equals forwarded+policed.
	finalSlice := n.Slice(where)
	ue := finalSlice.Control().Lookup(42)
	if ue == nil {
		t.Fatal("user lost after migrations")
	}
	var up uint64
	ue.ReadCounters(func(c *state.CounterState) { up = c.UplinkPackets })
	if up != f {
		t.Fatalf("counter %d != forwarded %d", up, f)
	}
}

func TestFullS1APAttachOverSCTP(t *testing.T) {
	// The complete signaling stack: eNodeB emulator ⇄ SCTP-lite ⇄ S1AP
	// server on a slice control plane ⇄ Diameter proxy ⇄ HSS/PCRF, then
	// user traffic through the data plane.
	hssDB := hss.New()
	hssDB.ProvisionRange(9000, 10, 10e6, 50e6)
	policy := pcrf.New()
	policy.SetDefaultRules([]pcef.Rule{{
		ID: 1, Precedence: 1, Action: pcef.ActionDrop,
		Filter: pcef.FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: 25, DstPortHi: 25},
	}})

	n := NewNode(SliceConfig{ID: 1, UserHint: 64})
	n.AttachProxy(NewProxy(hssDB, policy))

	cw, sw := sctp.Pipe(1024)
	var serverAssoc *sctp.Assoc
	acceptDone := make(chan error, 1)
	go func() {
		var err error
		serverAssoc, err = sctp.Accept(sw, sctp.Config{Tag: 2})
		acceptDone <- err
	}()
	clientAssoc, err := sctp.Dial(cw, sctp.Config{Tag: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-acceptDone; err != nil {
		t.Fatal(err)
	}
	defer clientAssoc.Close()

	srv := NewS1APServer(n.Slice(0).Control(), serverAssoc)
	stop := make(chan struct{})
	defer close(stop)
	go srv.Serve(stop)

	base := enb.New(pkt.IPv4Addr(192, 168, 1, 1), 3, 0xc0ffee, clientAssoc)
	ue := enb.NewUE(9005)
	if err := base.Attach(ue); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if !ue.Attached || ue.UplinkTEID == 0 || ue.UEAddr == 0 || ue.GUTI == 0 {
		t.Fatalf("session: %+v", ue)
	}

	// Give the server time to see the attach complete.
	deadline := time.After(2 * time.Second)
	for srv.AttachesCompleted.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("attach complete not processed")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// The PCRF's default rule must be live in the slice PCEF.
	if n.Slice(0).PCEF().Len() != 1 {
		t.Fatalf("PCEF rules = %d", n.Slice(0).PCEF().Len())
	}

	// Data now flows with the granted identifiers.
	s := n.Slice(0)
	s.Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	b := buildUplink(pool, ue.UplinkTEID, ue.UEAddr, ue.CoreAddr, s.Config().CoreAddr, 80)
	s.Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	if s.Data().Forwarded.Load() != 1 {
		t.Fatalf("post-attach traffic: forwarded=%d missed=%d",
			s.Data().Forwarded.Load(), s.Data().Missed.Load())
	}
	drainEgress(s)

	// Downlink lands at the eNodeB's endpoint.
	db := buildDownlink(pool, ue.UEAddr, 80)
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{db}, sim.Now())
	out, ok := s.Egress.Dequeue()
	if !ok {
		t.Fatal("no downlink egress")
	}
	var oip pkt.IPv4
	oip.DecodeFromBytes(out.Bytes())
	if oip.Dst != base.Addr {
		t.Fatalf("downlink outer dst = %s", pkt.FormatIPv4(oip.Dst))
	}
	out.Free()

	// X2 handover via path switch.
	base2 := enb.New(pkt.IPv4Addr(192, 168, 1, 2), 4, 0xc0ffef, clientAssoc)
	if err := base2.PathSwitch(ue); err != nil {
		t.Fatalf("path switch: %v", err)
	}
	db2 := buildDownlink(pool, ue.UEAddr, 80)
	s.Data().ProcessDownlinkBatch([]*pkt.Buf{db2}, sim.Now())
	out2, ok := s.Egress.Dequeue()
	if !ok {
		t.Fatal("no egress after path switch")
	}
	oip.DecodeFromBytes(out2.Bytes())
	if oip.Dst != base2.Addr {
		t.Fatalf("post-handover outer dst = %s", pkt.FormatIPv4(oip.Dst))
	}
	out2.Free()

	// Release detaches the user.
	if err := base2.Release(ue); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(2 * time.Second)
	for s.Control().Lookup(9005) != nil {
		select {
		case <-deadline:
			t.Fatal("release not processed")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestS1APAttachRejectsUnknownSubscriber(t *testing.T) {
	hssDB := hss.New() // empty: everyone unknown
	n := NewNode(SliceConfig{ID: 1, UserHint: 64})
	n.AttachProxy(NewProxy(hssDB, nil))

	cw, sw := sctp.Pipe(256)
	acceptDone := make(chan *sctp.Assoc, 1)
	go func() {
		a, _ := sctp.Accept(sw, sctp.Config{Tag: 2})
		acceptDone <- a
	}()
	clientAssoc, err := sctp.Dial(cw, sctp.Config{Tag: 1})
	if err != nil {
		t.Fatal(err)
	}
	serverAssoc := <-acceptDone
	defer clientAssoc.Close()

	srv := NewS1APServer(n.Slice(0).Control(), serverAssoc)
	stop := make(chan struct{})
	defer close(stop)
	go srv.Serve(stop)

	base := enb.New(1, 1, 1, clientAssoc)
	base.Timeout = 200 * time.Millisecond
	ue := enb.NewUE(404)
	if err := base.Attach(ue); err == nil {
		t.Fatal("attach of unknown subscriber succeeded")
	}
	if srv.AttachesFailed.Load() != 1 {
		t.Fatalf("failed counter = %d", srv.AttachesFailed.Load())
	}
}

func TestPolicyPushReachesOwningSlice(t *testing.T) {
	hssDB := hss.New()
	hssDB.ProvisionRange(1, 10, 10e6, 50e6)
	policy := pcrf.New()
	n := NewNode(SliceConfig{ID: 1, UserHint: 64}, SliceConfig{ID: 2, UserHint: 64})
	n.AttachProxy(NewProxy(hssDB, policy))
	n.EnablePolicyPush(policy)

	if _, err := n.AttachUser(1, AttachSpec{IMSI: 5}); err != nil {
		t.Fatal(err)
	}
	rule := pcef.Rule{ID: 99, Precedence: 1, Action: pcef.ActionDrop,
		Filter: pcef.FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: 25, DstPortHi: 25}}
	if err := policy.Push(5, []pcef.Rule{rule}); err != nil {
		t.Fatal(err)
	}
	// The rule landed on slice 1's PCEF (the owner), not slice 0's.
	if n.Slice(1).PCEF().Len() != 1 {
		t.Fatalf("owner PCEF rules = %d", n.Slice(1).PCEF().Len())
	}
	if n.Slice(0).PCEF().Len() != 0 {
		t.Fatalf("non-owner PCEF rules = %d", n.Slice(0).PCEF().Len())
	}
	// And the user's control state records the rule id for charging.
	ue := n.Slice(1).Control().Lookup(5)
	var ids [4]uint32
	var cnt uint8
	ue.ReadCtrl(func(c *state.ControlState) { ids = c.RuleIDs; cnt = c.RuleCount })
	if cnt != 1 || ids[0] != 99 {
		t.Fatalf("rule ids: %v count=%d", ids, cnt)
	}
	// Pushing for a user on no node is a no-op (not an error here; the
	// PCRF returns its own error for sessionless pushes).
	if err := policy.Push(404, []pcef.Rule{rule}); err == nil {
		t.Fatal("sessionless push accepted")
	}
}

func TestInterNodeMigration(t *testing.T) {
	// Two independent nodes (servers); a user moves between them through
	// the serialized transfer message, as a cluster scheduler would ship
	// it. The balancer layer (lb) would redirect traffic; here we verify
	// state fidelity and data-path continuity on the target node.
	nodeA := NewNode(SliceConfig{ID: 1, UserHint: 64})
	nodeB := NewNode(SliceConfig{ID: 1, UserHint: 64})
	res, err := nodeA.AttachUser(0, AttachSpec{IMSI: 99, ENBAddr: 5, DownlinkTEID: 0x990})
	if err != nil {
		t.Fatal(err)
	}
	nodeA.Slice(0).Data().SyncUpdates()
	// Usage on node A.
	pool := pkt.NewPool(2048, 128)
	for i := 0; i < 7; i++ {
		b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, nodeA.Slice(0).Config().CoreAddr, 80)
		nodeA.Slice(0).Data().ProcessUplinkBatch([]*pkt.Buf{b}, sim.Now())
	}
	drainEgress(nodeA.Slice(0))

	msg, err := nodeA.Scheduler().ExportUser(99, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Node A no longer serves the user: the TEID still steers to its home
	// slice there, which misses it and forwards nothing.
	if nodeA.Slice(0).Control().Lookup(99) != nil {
		t.Fatal("user still on node A")
	}
	nodeA.Slice(0).Data().SyncUpdates()
	nodeA.SteerUplink(buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, nodeA.Slice(0).Config().CoreAddr, 80))
	stale := make([]*pkt.Buf, 1)
	nodeA.Slice(0).Uplink.DequeueBatch(stale)
	nodeA.Slice(0).Data().ProcessUplinkBatch(stale, sim.Now())
	if dp := nodeA.Slice(0).Data(); dp.Missed.Load() != 1 || dp.Forwarded.Load() != 7 {
		t.Fatalf("node A after export: missed %d forwarded %d, want 1 and 7", dp.Missed.Load(), dp.Forwarded.Load())
	}

	if err := nodeB.Scheduler().ImportUser(msg, 0); err != nil {
		t.Fatal(err)
	}
	ue := nodeB.Slice(0).Control().Lookup(99)
	if ue == nil {
		t.Fatal("user not on node B")
	}
	var cnt state.CounterState
	ue.ReadCounters(func(c *state.CounterState) { cnt = *c })
	if cnt.UplinkPackets != 7 {
		t.Fatalf("counters lost in transfer: %+v", cnt)
	}
	// Data path works on node B with the same identifiers.
	nodeB.Slice(0).Data().SyncUpdates()
	b := buildUplink(pool, res.UplinkTEID, res.UEAddr, 5, nodeB.Slice(0).Config().CoreAddr, 80)
	nodeB.SteerUplink(b)
	batch := make([]*pkt.Buf, 4)
	n := nodeB.Slice(0).Uplink.DequeueBatch(batch)
	nodeB.Slice(0).Data().ProcessUplinkBatch(batch[:n], sim.Now())
	if nodeB.Slice(0).Data().Forwarded.Load() != 1 {
		t.Fatal("post-import traffic failed on node B")
	}
	drainEgress(nodeB.Slice(0))

	// Errors.
	if _, err := nodeA.Scheduler().ExportUser(99, 0); err != ErrUserUnknown {
		t.Fatalf("re-export: %v", err)
	}
	if _, err := nodeA.Scheduler().ExportUser(1, 9); err != ErrSliceRange {
		t.Fatalf("bad slice: %v", err)
	}
	if err := nodeB.Scheduler().ImportUser(msg, 9); err != ErrSliceRange {
		t.Fatalf("bad import slice: %v", err)
	}
	var corrupt StateTransferMessage
	if err := nodeB.Scheduler().ImportUser(corrupt, 0); err == nil {
		t.Fatal("corrupt message imported")
	}
}
