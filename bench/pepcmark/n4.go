package main

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"pepc"
	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/sockio"
)

// n4Workers is n4-churn's client count: one pfcp.Client each, one
// request outstanding each (closed loop).
const n4Workers = 2

func n4NodeAddr(w int) uint32 { return pkt.IPv4Addr(10, 255, 0, byte(w+1)) }

// n4Session is session i of a worker's range: an Access PDR detecting
// uplink by F-TEID (outer header removed), a Core PDR detecting downlink
// by UE address, a FAR wrapping downlink toward the gNB and a QER
// bounding the session — the rules cmd/smfsim sends.
func n4Session(r n4Range, i uint32) *pfcp.SessionRequest {
	i &= 0xFFFF
	return &pfcp.SessionRequest{
		CreatePDRs: []pfcp.PDR{
			{ID: 1, Precedence: 100, SourceInterface: pfcp.InterfaceAccess,
				TEID: r.teidBase | i, TEIDAddr: pkt.IPv4Addr(127, 0, 0, 1),
				OuterHeaderRemoval: true, FARID: 2, QERID: 1},
			{ID: 2, Precedence: 100, SourceInterface: pfcp.InterfaceCore,
				UEAddr: r.ueBase + i, FARID: 1, QERID: 1},
		},
		CreateFARs: []pfcp.FAR{
			{ID: 1, DestinationInterface: pfcp.InterfaceAccess, OuterHeaderCreation: true,
				TEID: 0xD000_0000 | i, Addr: pkt.IPv4Addr(192, 168, 50, 1)},
			{ID: 2, DestinationInterface: pfcp.InterfaceCore},
		},
		CreateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 50_000, MBRDownlinkKbps: 100_000}},
	}
}

// n4Modify is the mid-life modification: the FAR's tunnel moves to
// another gNB and the QER's rates change.
func n4Modify(seid uint64, i uint32) *pfcp.SessionRequest {
	return &pfcp.SessionRequest{
		SEID: seid,
		UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess, OuterHeaderCreation: true,
			TEID: 0xD100_0000 | i&0xFFFF, Addr: pkt.IPv4Addr(192, 168, 51, 1)}},
		UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 20_000, MBRDownlinkKbps: 40_000}},
	}
}

// n4Rig is the SMF side of n4-churn: the pepcd child serving N4, the
// workers' associated clients, and a UDP socket that is pepcd's SGi sink
// and the source of the probe G-PDUs.
type n4Rig struct {
	child   *pepcd
	conn    *sockio.Conn
	clients []*pfcp.Client
	ranges  []n4Range
	next    []uint32 // next session index per worker
}

// newN4Rig starts pepcd with an N4 listener and associates the workers:
// n4-churn's set-up.
func newN4Rig(e env) (*n4Rig, error) {
	r := &n4Rig{ranges: n4Ranges(e.seed, n4Workers), next: make([]uint32, n4Workers)}
	var err error
	if r.conn, err = dataSocket(); err != nil {
		return nil, err
	}
	if r.child, err = startPepcd(e, r.conn.LocalAddrPort(), 16, true); err != nil {
		r.conn.Close()
		return nil, err
	}
	for w := 0; w < n4Workers; w++ {
		c, err := pfcp.Dial(r.child.n4, n4NodeAddr(w))
		if err != nil {
			r.close()
			return nil, err
		}
		// Loopback loses nothing, so a retransmission only ever answers a
		// stall of the shared host; give a request seconds before it fails.
		c.SetRetransmit(time.Second, 7)
		r.clients = append(r.clients, c)
		if err := c.Associate(); err != nil {
			r.close()
			return nil, fmt.Errorf("associate worker %d: %w", w, err)
		}
	}
	return r, nil
}

func (r *n4Rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.conn.Close()
	r.child.stop()
}

// churnStats is one worker's timed phase.
type churnStats struct {
	ser            *series // one sample per request, one op per completed lifecycle
	requests, errs int64
	firstErr       error
}

// churn runs the workers for d: each loops establish → modify → delete
// on its own session range, timing every request from send to response.
// hosts holds one host-speed sampler per worker (nil entries: none),
// sampled between lifecycles.
func (r *n4Rig) churn(e env, d time.Duration, hosts []*hostRef) []churnStats {
	t0 := nowNs()
	end := t0 + int64(d)
	out := make([]churnStats, n4Workers)
	var wg sync.WaitGroup
	for w := range out {
		out[w].ser = newSeries(t0, e.sc.Window, d, int(d.Seconds()*200_000)+1024)
		out[w].ser.host = hosts[w]
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, c := &out[w], r.clients[w]
			fail := func(err error) {
				st.errs++
				if st.firstErr == nil {
					st.firstErr = err
				}
			}
			for t := nowNs(); t < end; {
				i := r.next[w]
				r.next[w]++
				st.requests++
				seid, err := c.Establish(n4Session(r.ranges[w], i))
				t1 := nowNs()
				if err != nil { // a refused or lost establishment leaves nothing to modify
					fail(err)
					t = t1
					continue
				}
				st.ser.add(t1, t1-t, 0)
				st.requests++
				err = c.Modify(n4Modify(seid, i))
				t2 := nowNs()
				if err != nil {
					fail(err)
				} else {
					st.ser.add(t2, t2-t1, 0)
				}
				st.requests++
				err = c.Delete(seid)
				t3 := nowNs()
				if err != nil {
					fail(err)
				} else {
					st.ser.add(t3, t3-t2, 1)
				}
				st.ser.host.sample(t3)
				t = nowNs()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// probe is n4-churn's output check outside the timed window: a G-PDU on
// a live session's F-TEID must come out of pepcd decapsulated, and the
// same G-PDU after the session is deleted must not.
func (r *n4Rig) probe(e env) error {
	c, rg := r.clients[0], r.ranges[0]
	i := r.next[0]
	r.next[0]++
	req := n4Session(rg, i)
	ue := []wireUE{{ulTEID: req.CreatePDRs[0].TEID, ueAddr: req.CreatePDRs[1].UEAddr}}
	g := newWireGen(e.seed, ue, pkt.IPv4Addr(192, 168, 50, 1))
	g.choose = newPktChooser(e.seed, 1, 1<<30, true) // one endless train: the first draw is uplink
	sink := newWireSink(g, 1<<10)
	dst, err := netip.ParseAddrPort(r.child.gtpu)
	if err != nil {
		return err
	}
	snd := sockio.NewSender(r.conn, 1, -1)
	rcv := sockio.NewReceiver(r.conn, pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom), wireBurst)
	defer snd.Close()
	defer rcv.Close()
	// delivered sends a probe G-PDU every 100 ms for wait and reports
	// whether one of them came back. Only the packets of this call count
	// (the sink keeps the highest sequence number seen): one sent earlier
	// and held up on a stalled host says nothing about the session now.
	delivered := func(wait time.Duration) bool {
		first := g.seq + 1
		for end := time.Now().Add(wait); time.Now().Before(end) && sink.last[1][0] < first; {
			snd.Queue(g.next(nowNs(), noSlot), dst)
			r.conn.UDPConn().SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			n, _ := rcv.Recv()
			for k := 0; k < n; k++ {
				sink.take(rcv.Buf(k).Bytes(), nowNs())
			}
		}
		return sink.last[1][0] >= first
	}
	seid, err := c.Establish(req)
	if err != nil {
		return fmt.Errorf("probe establish: %w", err)
	}
	if !delivered(wireLossAfter) {
		return errors.New("G-PDU on a live session's F-TEID was not forwarded")
	}
	if err := c.Delete(seid); err != nil {
		return fmt.Errorf("probe delete: %w", err)
	}
	if delivered(300 * time.Millisecond) {
		return errors.New("G-PDU on a deleted session's F-TEID was still forwarded")
	}
	if sink.bad > 0 {
		return fmt.Errorf("%d probe packets came back with other bytes than sent", sink.bad)
	}
	return nil
}

// runN4 runs n4-churn.
func runN4(e env, res *result) error {
	if res.Trace {
		return traceN4(e, res)
	}
	rig, setup, err := medianSetup(e, func() (*n4Rig, error) { return newN4Rig(e) }, (*n4Rig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	none := make([]*hostRef, n4Workers)
	rig.churn(e, e.sc.Warm, none)
	hosts := []*hostRef{newHostRef()}
	for len(hosts) < n4Workers {
		hosts = append(hosts, hosts[0].sibling())
	}
	sts := rig.churn(e, e.dur, hosts)
	if err := rig.child.alive(); err != nil {
		return err
	}
	ws := n4Checks(res, rig, e, sts)
	// The lifecycle rate is CPU time in two processes and the kernel and
	// follows the host's speed. The p99 does not: it is the 4 ms scheduler
	// tick a request waits when pepcd's thread queues behind its
	// busy-polling data worker. Nor does the set-up, a process start.
	for _, h := range hosts[1:] {
		hosts[0].merge(h)
	}
	opMetrics(e, res, setup, ws, ws, hosts[0], scaling{rate: true, aluShare: aluShareN4})
	return nil
}

// n4Checks fills attempted/failed from the workers' phases — a request
// that timed out or was answered with any cause but "accepted" failed —
// runs the probe, and returns the phases' merged windows.
func n4Checks(res *result, rig *n4Rig, e env, sts []churnStats) windowStats {
	var sers []*series
	var retrans uint64
	for w, st := range sts {
		sers = append(sers, st.ser)
		res.Attempted += st.requests
		res.Failed += st.errs
		if st.errs > 0 {
			res.fail("worker %d: %d of %d requests failed, first: %v", w, st.errs, st.requests, st.firstErr)
		}
		retrans += rig.clients[w].Retransmits
	}
	if res.Trace {
		res.set("pfcp.client_retransmits", metric{Value: float64(retrans), Unit: "count"})
	}
	if err := rig.probe(e); err != nil {
		res.fail("%v", err)
	} else {
		res.note("every cause accepted; probe G-PDU forwarded on a live session's F-TEID and not after its deletion")
	}
	return reduce(e.sc.MinSamples, sers...)
}

// traceN4 is n4-churn's traced run: the workers against the child for
// its CPU split, then the in-process replica (UPF.Handle and Flush fed
// the datagrams the workers send) with the tracer off and on, then the
// codec probes.
func traceN4(e env, res *result) error {
	rig, err := newN4Rig(e)
	if err != nil {
		return err
	}
	defer rig.close()
	none := make([]*hostRef, n4Workers)
	rig.churn(e, e.sc.Warm/2, none)
	before, _ := rig.child.usage()
	from := rig.child.statsLen()
	sts := rig.churn(e, e.dur/2, none)
	if err := rig.child.alive(); err != nil {
		return err
	}
	var cycles int64
	for _, st := range sts {
		for _, n := range st.ser.ops {
			cycles += n
		}
	}
	childMetrics(res, rig.child, before, from, cycles)
	setP50(res, n4Checks(res, rig, e, sts))

	rep := newN4Replica(e)
	off, err := rep.run(e.dur/8, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	on, err := rep.run(e.dur/4, tr)
	if err != nil {
		return err
	}
	res.Attempted += 3 * (off.offered + on.offered)
	res.Failed += 3 * (off.offered - off.egress + on.offered - on.egress)
	for st, name := range map[stage]string{stCoreN4Est: "core.n4_est_ns", stCoreN4Mod: "core.n4_mod_ns",
		stCoreN4Del: "core.n4_del_ns", stCoreN4Flush: "core.n4_flush_ns", stCoreSync: "core.sync_ns_per_call"} {
		res.set(name, metric{Value: tr.sums[st].perCall(), Unit: "ns", N: int(tr.sums[st].Calls)})
	}
	res.set("gen.ns_per_pkt", metric{Value: tr.sums[stGenBuild].perItem(), Unit: "ns", N: int(tr.sums[stGenBuild].Items)})
	cs := rep.node.Slice(0).Control().Stats()
	res.set("core.sig_drops", metric{Value: float64(cs.SigDrops), Unit: "count"})
	if err := traceMetrics(e, res, tr, res.Workload, off, on); err != nil {
		return err
	}
	probePFCP(e.sc.ProbeChunk, res, rig.ranges[0])
	return nil
}

// n4Replica is pepcd's N4 serve loop without the socket: a node and its
// UPF in-process, handed the same request datagrams a worker's client
// marshals, one lifecycle per burst.
type n4Replica struct {
	node *pepc.Node
	upf  *pepc.UPF
	rng  n4Range
	next uint32
	seq  uint32
}

func newN4Replica(e env) *n4Replica {
	node := pepc.NewNode(pepc.SliceConfig{ID: 1, UserHint: 1 << 10})
	return &n4Replica{node: node, upf: pepc.NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1)), rng: n4Ranges(e.seed, n4Workers)[0]}
}

// run drives lifecycles through Handle/Flush for d. offered counts
// lifecycles started, egress those whose three responses were accepted.
func (rp *n4Replica) run(d time.Duration, tr *tracer) (loopStats, error) {
	var st loopStats
	var req, resp []byte
	smf := n4NodeAddr(0)
	rp.seq++
	setup := pfcp.BuildAssociationSetupRequest(rp.seq, smf, 1)
	if resp = rp.upf.Handle(setup.Marshal(nil), resp[:0]); len(resp) == 0 {
		return st, errors.New("replica: association request unanswered")
	}
	// accepted parses a response the way the client does.
	accepted := func(resp []byte) (uint64, bool) {
		m, err := pfcp.Unmarshal(resp)
		if err != nil {
			return 0, false
		}
		r, err := pfcp.ParseSessionResponse(&m)
		return r.FSEID, err == nil && r.Cause == pfcp.CauseAccepted
	}
	dp := rp.node.Slice(0).Data()
	start := nowNs()
	end := start + int64(d)
	for {
		t0 := nowNs()
		if t0 >= end {
			break
		}
		st.offered++
		i := rp.next
		rp.next++
		tr.begin(t0)

		tr.stage(stGenBuild)
		s := n4Session(rp.rng, i)
		s.NodeID, s.FSEID, s.FSEIDAddr = smf, uint64(i)+1, smf
		rp.seq++
		m := pfcp.BuildSessionEstablishment(rp.seq, s)
		req = m.Marshal(req[:0])
		tr.items(1)
		tr.stage(stCoreN4Est)
		resp = rp.upf.Handle(req, resp[:0])
		tr.stage(stCoreN4Flush)
		rp.upf.Flush()
		tr.stage(stGenBuild)
		seid, ok := accepted(resp)
		rp.seq++
		m = pfcp.BuildSessionModification(rp.seq, n4Modify(seid, i))
		req = m.Marshal(req[:0])
		tr.items(1)
		tr.stage(stCoreN4Mod)
		resp = rp.upf.Handle(req, resp[:0])
		tr.stage(stCoreN4Flush)
		rp.upf.Flush()
		tr.stage(stGenBuild)
		_, ok2 := accepted(resp)
		rp.seq++
		m = pfcp.BuildSessionDeletion(rp.seq, seid)
		req = m.Marshal(req[:0])
		tr.items(1)
		tr.stage(stCoreN4Del)
		resp = rp.upf.Handle(req, resp[:0])
		tr.stage(stCoreN4Flush)
		rp.upf.Flush()
		// pepcd's data worker applies the index updates the drains queued.
		tr.stage(stCoreSync)
		dp.SyncUpdates()
		tr.stage(stGenBuild)
		_, ok3 := accepted(resp)
		if ok && ok2 && ok3 {
			st.egress++
		}
		tr.end(1)
	}
	st.wallNs = nowNs() - start
	return st, nil
}
