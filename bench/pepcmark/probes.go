package main

import (
	"time"

	"pepc"
	"pepc/internal/core"
	"pepc/internal/gtp"
	"pepc/internal/hdr"
	"pepc/internal/hss"
	"pepc/internal/pcef"
	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/qos"
	"pepc/internal/ring"
	"pepc/internal/state"
	"pepc/internal/workload"
)

// Layer probes: each times one layer's public functions on the
// workload's own packets and keys, outside any pipeline, so a stage's
// cost in the trace can be split into its leaves. They run in the traced
// run only and never touch the program under test.

var probeSink uint64 // keeps probe results live so the calls are not optimised away

// probe times fn, which performs per operations per call, and returns
// ns per operation: the median of five chunks, so one preempted
// chunk does not move the figure.
func probe(chunk time.Duration, per int, fn func()) metric {
	fn() // warm
	var vs []float64
	ops := 0
	for c := 0; c < 5; c++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < chunk {
			for i := 0; i < 16; i++ {
				fn()
			}
			calls += 16
		}
		vs = append(vs, float64(time.Since(start))/float64(calls*per))
		ops += calls * per
	}
	return metric{Value: median(vs), Unit: "ns", N: ops, IQR: iqr(vs)}
}

// probeLayers fills the probe metrics. users is the workload's
// population (the working set the state probe runs against); imix picks
// the wire workload's packet sizes over the paper's 128 B/64 B.
func probeLayers(e env, res *result, users int, imix bool) {
	chunk := e.sc.ProbeChunk
	probeState(e, res, users)
	probePackets(chunk, res, imix)

	// qos: one aggregate token-bucket call per flow run, as uplinkRun makes.
	var lim qos.UserLimiter
	lim.ConfigureUser(1e9, 1e9)
	now := nowNs()
	res.set("qos.allow_run_ns", probe(chunk, 1, func() {
		now += 1000
		if lim.AllowUplinkRun(now, 0, 256) {
			probeSink++
		}
	}))

	// pcef: the workloads install no PCC rules (the PCRF's default profile
	// is empty), so this is the snapshot classify at that rule count.
	rules := pcef.NewTable().Snapshot()
	flow := pkt.Flow{Src: pkt.IPv4Addr(10, 0, 0, 1), Dst: pkt.IPv4Addr(8, 8, 8, 8), Proto: pkt.ProtoUDP, SrcPort: 40000, DstPort: 80}
	res.set("pcef.classify_ns", probe(chunk, 1, func() { probeSink += uint64(rules.ClassifyFlow(flow).RuleID) }))

	// hdr: pepcd's -lat figures are recorded through this.
	h := hdr.New()
	v := int64(1000)
	res.set("hdr.record_ns", probe(chunk, 1, func() { v += 7; h.Record(v) }))

	// core proxy: one batched authentication at the run length the
	// signaling schedule gives attach events.
	run := attachRunLength(e)
	db := pepc.NewHSS()
	db.ProvisionRange(1, 4096, 50e6, 100e6)
	px := pepc.NewProxy(db, pepc.NewPCRF())
	imsis := make([]uint64, run)
	vecs := make([]hss.Vector, run)
	next := uint64(0)
	m := probe(chunk, run, func() {
		for i := range imsis {
			imsis[i] = 1 + next%4096
			next++
		}
		if px.AuthenticateBatch(imsis, vecs) == nil {
			probeSink++
		}
	})
	res.set("core.proxy_auth_ns_per_imsi", m)
}

// attachRunLength is the mean length of consecutive attach events in the
// seeded schedule: the group size DrainSignaling hands a batched
// procedure.
func attachRunLength(e env) int {
	s := newSigSchedule(e.seed, e.sc.Users-e.sc.Churn, e.sc.Churn)
	runs, events, in := 0, 0, false
	for i := 0; i < 4096; i++ {
		if s.next().kind == core.SigAttachEvent {
			events++
			if !in {
				runs++
			}
			in = true
		} else {
			in = false
		}
	}
	if runs == 0 {
		return 1
	}
	return (events + runs/2) / runs
}

// probeState times the data-path index lookup with uniform keys at the
// workload's population and again at 1K users: the difference is what
// the working set costs in cache misses. It also times the control→data
// update queue.
func probeState(e env, res *result, users int) {
	chunk := e.sc.ProbeChunk
	lookup := func(n int) metric {
		ix := state.NewIndexes(n)
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = 0x1100_0000 | uint32(i+1)
			ix.Apply(state.Update{Op: state.OpInsert, TEID: keys[i], UEIP: 0x0B00_0000 | uint32(i+1), UE: &state.UE{}})
		}
		r := newRNG(e.seed, streamUsers)
		batch := make([]uint32, inmemBatch)
		out := make([]*state.HotUE, inmemBatch)
		return probe(chunk, inmemBatch, func() {
			for i := range batch {
				batch[i] = keys[r.intn(n)]
			}
			ix.GetHotBatch(batch, true, out)
			if out[0] != nil {
				probeSink++
			}
		})
	}
	res.set("state.lookup_ns_per_key", lookup(users))
	res.set("state.lookup_hot_ns_per_key", lookup(1000))

	ix := state.NewIndexes(1024)
	uq := state.NewUpdateQueue(1 << 10)
	ups := make([]state.Update, inmemBatch)
	for i := range ups {
		ups[i] = state.Update{Op: state.OpInsert, TEID: 0x1100_0000 | uint32(i+1), UEIP: 0x0B00_0000 | uint32(i+1), UE: &state.UE{}}
	}
	res.set("state.update_ns_per_op", probe(chunk, inmemBatch, func() {
		uq.PushBatch(ups)
		probeSink += uint64(uq.Drain(ix))
	}))
}

// probePackets times the header engine, the buffer pool and the ring on
// one uplink and one downlink packet of the workload's sizes.
func probePackets(chunk time.Duration, res *result, imix bool) {
	cfg := workload.TrafficConfig{}
	if imix {
		cfg.UplinkSize, cfg.DownlinkSize = 576, 576
	}
	u := workload.User{IMSI: 1, UplinkTEID: 0x1100_0001, UEAddr: pkt.IPv4Addr(11, 0, 0, 1)}
	gen := workload.NewTrafficGen(cfg, []workload.User{u})
	up, dn := gen.UplinkFor(u), gen.DownlinkFor(u)

	data := up.Bytes()
	res.set("gtp.parse_outer_ns", probe(chunk, 1, func() {
		teid, _, _ := gtp.ParseOuter(data)
		probeSink += uint64(teid)
	}))
	// Decap as the slice does it: the demux's parse is recorded in the
	// metadata and DecapGPDU trims; Prepend puts the envelope back.
	res.set("gtp.decap_ns", probe(chunk, 1, func() {
		up.Meta.TEID, up.Meta.OuterLen, up.Meta.OuterParsed = u.UplinkTEID, outerLen, true
		if _, err := gtp.DecapGPDU(up); err == nil {
			up.Prepend(outerLen)
		}
	}))
	var tmpl gtp.EncapTemplate
	tmpl.Init(dlTEIDTag|1, pkt.IPv4Addr(172, 16, 0, 1), pkt.IPv4Addr(192, 168, 0, 1))
	res.set("gtp.encap_ns", probe(chunk, 1, func() {
		if tmpl.Apply(dn) == nil {
			dn.TrimFront(outerLen)
		}
	}))

	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	cache := pool.NewCache(pkt.DefaultCacheSize)
	res.set("pkt.pool_getput_ns", probe(chunk, 1, func() { cache.Put(cache.Get()) }))

	rg := ring.MustSPSC[*pkt.Buf](1 << 12)
	in := make([]*pkt.Buf, inmemBatch)
	out := make([]*pkt.Buf, inmemBatch)
	for i := range in {
		in[i] = up
	}
	res.set("ring.hop_ns_per_pkt", probe(chunk, inmemBatch, func() {
		rg.EnqueueBatch(in)
		probeSink += uint64(rg.DequeueBatch(out))
	}))
}

// probePFCP times the N4 codec on the exact establishment request the
// workers send and the response the UPF answers with.
func probePFCP(chunk time.Duration, res *result, rng n4Range) {
	req := n4Session(rng, 1)
	req.NodeID, req.FSEID, req.FSEIDAddr = n4NodeAddr(0), 1, n4NodeAddr(0)
	est := pfcp.BuildSessionEstablishment(1, req)
	dgram := est.Marshal(nil)
	res.set("pfcp.unmarshal_ns", probe(chunk, 1, func() {
		m, err := pfcp.Unmarshal(dgram)
		if err != nil {
			return
		}
		if r, err := pfcp.ParseSessionRequest(&m); err == nil {
			probeSink += r.FSEID
		}
	}))
	var buf []byte
	res.set("pfcp.marshal_ns", probe(chunk, 1, func() {
		r := pfcp.BuildSessionResponse(pfcp.MsgSessionEstablishmentResponse, 1, 1, pfcp.CauseAccepted, 2, n4NodeAddr(0))
		buf = r.Marshal(buf[:0])
	}))
}
