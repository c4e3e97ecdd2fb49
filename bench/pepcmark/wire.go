package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"time"

	"pepc"
	"pepc/internal/enb"
	"pepc/internal/gtp"
	"pepc/internal/pkt"
	"pepc/internal/sctp"
	"pepc/internal/sockio"
)

// wire-forward's fixed shape.
const (
	wireTrain  = 8  // consecutive packets per (UE, direction) draw
	wireBurst  = 32 // packets per send: four trains, one sendmmsg
	wireWindow = 64 // phase A: packets in flight
	// wireLossAfter is how long a packet may stay unseen before its window
	// slot goes to a new packet, and how long a phase waits for stragglers
	// before counting what is missing as lost. It is seconds, not the
	// round trip's milliseconds: on a shared host pepcd is now and then
	// kept off the CPU for hundreds of milliseconds, and a window that
	// refilled its slots meanwhile would put more packets in flight than
	// pepcd's socket buffer holds — the generator would cause the loss it
	// then counts.
	wireLossAfter = 2 * time.Second
	// wireLateAfter is the age from which a returned packet is counted as
	// slow (reported, not failed).
	wireLateAfter = 100 * time.Millisecond
	noSlot        = ^uint32(0)
)

// Payload layout after the inner IPv4+UDP headers: who the packet is
// for, which packet it is, when it was due, and the phase-A window slot
// it occupies. The rest of the packet is fixed filler.
const (
	payOff   = pkt.IPv4HeaderLen + pkt.UDPHeaderLen
	payUser  = payOff
	paySeq   = payOff + 4
	payDue   = payOff + 12
	paySlot  = payOff + 20
	payBytes = 24
)

type wireUE struct{ ulTEID, ueAddr, dlTEID uint32 }

// wireGen builds the workload's packets and is also what the receiving
// side rebuilds them with: inner is the one definition of what a packet
// (user, seq, due, slot, direction, size) looks like.
type wireGen struct {
	ues      []wireUE
	enbAddr  uint32
	choose   *pktChooser
	cache    *pkt.PoolCache
	inTmpl   [2][3][]byte // [uplink][size class] inner packet
	outTmpl  [3][]byte    // [size class] uplink outer envelope
	seq      uint64
	sentPkts int64
}

var wireSizes = [3]int{64, 576, 1400}

// sizeClass maps an inner packet length to its index in wireSizes, -1
// when it is none of the generated sizes.
func sizeClass(n int) int {
	for c, sz := range wireSizes {
		if n == sz {
			return c
		}
	}
	return -1
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func newWireGen(seed uint64, ues []wireUE, enbAddr uint32) *wireGen {
	g := &wireGen{ues: ues, enbAddr: enbAddr, choose: newPktChooser(seed, len(ues), wireTrain, true),
		cache: pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom).NewCache(4 * wireBurst)}
	remote := pkt.IPv4Addr(8, 8, 8, 8)
	for c, size := range wireSizes {
		for _, up := range []bool{false, true} {
			p := make([]byte, size)
			ip := pkt.IPv4{Length: uint16(size), TTL: 64, Protocol: pkt.ProtoUDP, Src: remote, Dst: remote}
			ip.SerializeTo(p)
			u := pkt.UDP{SrcPort: 80, DstPort: 40000, Length: uint16(size - pkt.IPv4HeaderLen)}
			if up {
				u.SrcPort, u.DstPort = 40000, 80
			}
			u.SerializeTo(p[pkt.IPv4HeaderLen:])
			for i := payOff + payBytes; i < size; i++ {
				p[i] = byte(i)
			}
			g.inTmpl[b2i(up)][c] = p
		}
		b := pkt.NewBuf(pkt.DefaultBufSize, pkt.DefaultHeadroom)
		b.SetBytes(g.inTmpl[1][c])
		if err := gtp.EncapGPDU(b, 0, enbAddr, pkt.IPv4Addr(172, 16, 0, 1)); err != nil {
			panic(err) // a fixed-size envelope on a fresh buffer cannot fail
		}
		g.outTmpl[c] = append([]byte(nil), b.Bytes()[:outerLen]...)
	}
	return g
}

// inner writes the inner IPv4 packet for one draw into dst[:size].
func (g *wireGen) inner(dst []byte, up bool, size int, user uint32, seq uint64, due int64, slot uint32) {
	copy(dst[:size], g.inTmpl[b2i(up)][sizeClass(size)])
	addr := dst[16:20] // downlink: addressed to the UE
	if up {
		addr = dst[12:16] // uplink: sourced by the UE
	}
	binary.BigEndian.PutUint32(addr, g.ues[user].ueAddr)
	binary.BigEndian.PutUint32(dst[payUser:], user)
	binary.BigEndian.PutUint64(dst[paySeq:], seq)
	binary.BigEndian.PutUint64(dst[payDue:], uint64(due))
	binary.BigEndian.PutUint32(dst[paySlot:], slot)
	dst[10], dst[11] = 0, 0
	binary.BigEndian.PutUint16(dst[10:12], pkt.Checksum(dst[:pkt.IPv4HeaderLen]))
}

// next builds the next packet of the seeded stream: an uplink G-PDU to
// the UE's uplink TEID or a plain downlink IP packet to its address.
func (g *wireGen) next(due int64, slot uint32) *pkt.Buf {
	d := g.choose.next()
	g.seq++
	b := g.cache.Get()
	if d.uplink {
		b.SetRecvLen(outerLen + d.size)
		data := b.Bytes()
		copy(data, g.outTmpl[sizeClass(d.size)])
		binary.BigEndian.PutUint32(data[outerLen-4:], g.ues[d.user].ulTEID)
		g.inner(data[outerLen:], true, d.size, uint32(d.user), g.seq, due, slot)
	} else {
		b.SetRecvLen(d.size)
		g.inner(b.Bytes(), false, d.size, uint32(d.user), g.seq, due, slot)
	}
	g.sentPkts++
	return b
}

// wireSink checks and accounts what comes back. From pepcd, a plain IP
// datagram is decapsulated uplink (arriving at the SGi sink) and a G-PDU
// is encapsulated downlink (arriving at the eNB socket); with loopback
// set the generator's own packets come straight back, so the roles flip.
type wireSink struct {
	gen      *wireGen
	loopback bool
	scratch  []byte
	seen     []uint64    // bitmap by sequence number: duplicates
	last     [2][]uint64 // highest sequence seen per (direction, UE): reordering

	ok, bad, dup, reordered, slow int64
	innerBytes                    int64
	rate                          *series // verified deliveries per window
	lat                           *series // due → arrival, nil in a closed-loop phase
	window                        *slotWindow
}

func newWireSink(g *wireGen, maxSeq int) *wireSink {
	s := &wireSink{gen: g, scratch: make([]byte, pkt.DefaultBufSize), seen: make([]uint64, maxSeq/64+1)}
	s.last[0] = make([]uint64, len(g.ues))
	s.last[1] = make([]uint64, len(g.ues))
	return s
}

// take checks one received datagram that arrived at now.
func (s *wireSink) take(data []byte, now int64) {
	teid, hl, err := gtp.ParseOuter(data)
	isGTP := err == nil
	in := data
	if isGTP {
		in = data[hl:]
	}
	if len(in) < payOff+payBytes {
		s.bad++
		return
	}
	user := binary.BigEndian.Uint32(in[payUser:])
	seq := binary.BigEndian.Uint64(in[paySeq:])
	due := int64(binary.BigEndian.Uint64(in[payDue:]))
	slot := binary.BigEndian.Uint32(in[paySlot:])
	if int(user) >= len(s.gen.ues) || seq == 0 || seq/64 >= uint64(len(s.seen)) || sizeClass(len(in)) < 0 {
		s.bad++
		return
	}
	up := isGTP == s.loopback
	if isGTP {
		want := s.gen.ues[user].dlTEID // the TEID granted at attach
		if s.loopback {
			want = s.gen.ues[user].ulTEID
		}
		if teid != want {
			s.bad++
			return
		}
	}
	s.gen.inner(s.scratch, up, len(in), user, seq, due, slot)
	if !bytes.Equal(in, s.scratch[:len(in)]) {
		s.bad++
		return
	}
	if w, bit := &s.seen[seq/64], uint64(1)<<(seq%64); *w&bit != 0 {
		s.dup++
		return
	} else {
		*w |= bit
	}
	if l := &s.last[b2i(up)][user]; seq < *l {
		s.reordered++
	} else {
		*l = seq
	}
	s.ok++
	s.innerBytes += int64(len(in))
	if s.window != nil && slot != noSlot {
		if s.window.release(slot, seq) && now-s.window.sentAt[slot] > int64(wireLateAfter) {
			s.slow++
		}
	}
	if s.rate != nil {
		s.rate.count(now, 1)
	}
	if s.lat != nil {
		s.lat.add(now, now-due, 1)
	}
}

// slotWindow bounds the packets in flight: wireWindow slots, each
// holding the sequence number of the packet in flight in it. A slot is
// freed when its packet comes back, or reclaimed when the packet has been
// unseen for wireLossAfter.
type slotWindow struct {
	seq      [wireWindow]uint64 // 0 = free
	sentAt   [wireWindow]int64
	free     []uint32
	expiry   int64
	lastScan int64
}

func newSlotWindow() *slotWindow {
	w := &slotWindow{free: make([]uint32, 0, wireWindow)}
	for i := uint32(0); i < wireWindow; i++ {
		w.free = append(w.free, i)
	}
	return w
}

// release frees slot if seq is the packet in flight in it, and reports
// whether it was.
func (w *slotWindow) release(slot uint32, seq uint64) bool {
	if slot >= wireWindow || w.seq[slot] != seq {
		return false
	}
	w.seq[slot] = 0
	w.free = append(w.free, slot)
	return true
}

// reclaim frees the slots whose packets are overdue; it scans at most
// every 10 ms.
func (w *slotWindow) reclaim(now int64) {
	if now-w.lastScan < int64(10*time.Millisecond) {
		return
	}
	w.lastScan = now
	for i := range w.seq {
		if w.seq[i] != 0 && now-w.sentAt[i] > int64(wireLossAfter) {
			w.release(uint32(i), w.seq[i])
			w.expiry++
		}
	}
}

// wireRig is the generator side of wire-forward: one UDP socket that
// sources uplink G-PDUs and downlink IP toward pepcd's GTP-U port and is
// both the SGi sink and the eNB tunnel endpoint pepcd answers to, the
// S1AP association that attached the UEs, and the pepcd child itself.
type wireRig struct {
	child   *pepcd
	conn    *sockio.Conn
	dst     netip.AddrPort // pepcd's GTP-U address
	assoc   *sctp.Assoc
	ues     []wireUE
	enbAddr uint32
	pool    *pkt.Pool

	attachRTT []float64 // µs per UE
}

// dataSocket opens the generator's UDP socket with buffers deep enough
// for a window of full-size packets.
func dataSocket() (*sockio.Conn, error) {
	uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	uc.SetReadBuffer(4 << 20)
	uc.SetWriteBuffer(4 << 20)
	return sockio.NewConn(uc)
}

// newWireRig starts pepcd and attaches the UEs over S1AP/SCTP/UDP: the
// wire workload's set-up.
func newWireRig(e env) (*wireRig, error) {
	r := &wireRig{enbAddr: pkt.IPv4Addr(192, 168, 50, 1), pool: pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)}
	var err error
	if r.conn, err = dataSocket(); err != nil {
		return nil, err
	}
	if r.child, err = startPepcd(e, r.conn.LocalAddrPort(), e.sc.WireUEs+16, false); err != nil {
		r.conn.Close()
		return nil, err
	}
	if r.dst, err = netip.ParseAddrPort(r.child.gtpu); err != nil {
		r.close()
		return nil, err
	}
	sc, err := net.Dial("udp", r.child.s1ap)
	if err != nil {
		r.close()
		return nil, err
	}
	if r.assoc, err = sctp.Dial(sctp.NewUDPWire(sc), sctp.Config{Tag: 0x11}); err != nil {
		sc.Close()
		r.close()
		return nil, fmt.Errorf("sctp dial: %w", err)
	}
	base := enb.New(r.enbAddr, 1, 0x100, r.assoc)
	for i := 0; i < e.sc.WireUEs; i++ {
		ue := enb.NewUE(uint64(i + 1)) // pepcd provisions IMSIs from 1
		t := time.Now()
		if err := base.Attach(ue); err != nil {
			r.close()
			return nil, fmt.Errorf("attach imsi %d: %w", ue.IMSI, err)
		}
		r.attachRTT = append(r.attachRTT, float64(time.Since(t))/1e3)
		r.ues = append(r.ues, wireUE{ulTEID: ue.UplinkTEID, ueAddr: ue.UEAddr, dlTEID: ue.DownlinkTEID})
	}
	return r, nil
}

func (r *wireRig) close() {
	if r.assoc != nil {
		r.assoc.Close()
	}
	r.conn.Close()
	if r.child != nil {
		r.child.stop()
	}
}

// phaseStats is what one phase sent and got back.
type phaseStats struct {
	sent, ok, bad, dup, reordered, slow, expiry int64
	innerBytes                                  int64
	wallNs                                      int64
	rate, lat                                   *series
	late                                        *series // open loop: send time − due time per burst
}

func (p phaseStats) lost() int64 { return p.sent - p.ok - p.bad - p.dup }

// phase runs one timed phase against dst on one goroutine that both
// sends and receives: closed loop with wireWindow packets in flight when
// rate is 0, an open-loop schedule of rate packets/s (with the same cap
// on packets in flight) otherwise. Between sends it blocks in the socket
// read, until a packet arrives or the next send is due.
func (r *wireRig) phase(e env, g *wireGen, dst netip.AddrPort, d time.Duration, rate float64, loopback bool) phaseStats {
	sink := newWireSink(g, int(g.seq)+int(d.Seconds()*2_000_000)+1<<16)
	sink.loopback = loopback
	t0 := nowNs()
	end := t0 + int64(d)
	sink.rate = newSeries(t0, e.sc.Window, d, 0)
	var st phaseStats
	interval := float64(wireBurst) / rate * 1e9 // open loop: ns between bursts
	if rate > 0 {
		sink.lat = newSeries(t0, e.sc.Window, d, int(d.Seconds()*rate*1.2)+1024)
		st.late = newSeries(t0, e.sc.Window, d, int(d.Seconds()*rate/wireBurst*1.2)+1024)
	}
	w := newSlotWindow()
	sink.window = w
	rcv := sockio.NewReceiver(r.conn, r.pool, wireBurst)
	snd := sockio.NewSender(r.conn, wireBurst, time.Hour) // flushed explicitly per burst
	defer rcv.Close()
	defer snd.Close()
	uc := r.conn.UDPConn()
	sent0 := g.sentPkts
	recv := func(until int64) {
		uc.SetReadDeadline(time.Now().Add(time.Duration(until - nowNs())))
		n, _ := rcv.Recv()
		now := nowNs()
		for i := 0; i < n; i++ {
			sink.take(rcv.Buf(i).Bytes(), now)
		}
	}
	// send puts n packets stamped stamp into free window slots.
	send := func(stamp int64, n int) {
		now := nowNs()
		for _, slot := range w.free[len(w.free)-n:] {
			b := g.next(stamp, slot)
			w.sentAt[slot], w.seq[slot] = now, g.seq
			snd.Queue(b, dst)
		}
		w.free = w.free[:len(w.free)-n]
		snd.Flush()
	}
	for k := int64(0); ; {
		now := nowNs()
		if now >= end {
			break
		}
		if rate == 0 {
			// Closed loop: refill every free slot, then wait for arrivals.
			w.reclaim(now)
			n := min(len(w.free), wireBurst)
			send(now, n)
			if n == wireBurst && len(w.free) > 0 {
				continue
			}
			recv(min(end, now+int64(10*time.Millisecond)))
			continue
		}
		// Open loop: burst k is due at t0 + k×interval whatever came back.
		// Packets carry the due time, not the send time, so a late
		// generator shows up as latency; how late it ran goes to late.
		due := t0 + int64(float64(k)*interval)
		if now < due {
			recv(min(end, due))
			continue
		}
		// The schedule is open, the wire is not unbounded: at most
		// wireWindow packets are in flight, what pepcd's socket buffer
		// holds. A burst the window holds back waits here, in the
		// generator's own queue, and is still timed from its due time.
		w.reclaim(now)
		if len(w.free) < wireBurst {
			recv(min(end, now+int64(10*time.Millisecond)))
			continue
		}
		st.late.add(now, now-due, 0)
		send(due, wireBurst)
		k++
	}
	st.wallNs = nowNs() - t0
	// Stragglers still count: the phase ends when every slot is back;
	// what has not arrived wireLossAfter after the last arrival is lost.
	for last := int64(-1); len(w.free) < wireWindow && last != sink.ok; {
		last = sink.ok
		recv(nowNs() + int64(wireLossAfter))
	}
	st.sent = g.sentPkts - sent0
	st.ok, st.bad, st.dup, st.reordered, st.slow = sink.ok, sink.bad, sink.dup, sink.reordered, sink.slow
	st.innerBytes, st.rate, st.lat = sink.innerBytes, sink.rate, sink.lat
	st.expiry = w.expiry
	return st
}

// runWire runs wire-forward. How fast a pepcd forwards depends on the
// process as much as on the program — where its threads came to sit, how
// its heap fell — and stays with it for its lifetime: instances started
// seconds apart differ by a fifth in p99, two phases on one instance by a
// few percent. So the run measures sc.WireInstances instances in turn, each
// started, attached (the set-ups setup_s is the median of), warmed up and
// given its share of both timed phases, and the windows of all of them are
// reduced together. The seeded packet stream runs on from one instance to
// the next.
func runWire(e env, res *result) error {
	if res.Trace {
		return traceWire(e, res)
	}
	var (
		g         *wireGen
		setups    []float64
		rate, lat windowStats
		phases    []phaseStats
	)
	n := time.Duration(e.sc.WireInstances)
	for k := 0; k < e.sc.WireInstances; k++ {
		runtime.GC() // the previous instance's garbage is not this set-up's cost
		start := time.Now()
		rig, err := newWireRig(e)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if g == nil {
			g = newWireGen(e.seed, rig.ues, rig.enbAddr)
		}
		g.ues = rig.ues
		// pepcd learns the eNB's tunnel endpoint from the first uplink G-PDU
		// and has no route for downlink before: every instance's first train
		// is an uplink one.
		g.choose.restart()
		warm := rig.phase(e, g, rig.dst, e.sc.Warm/n, 0, false)
		// The closed-loop rate settles quickly; the open-loop tail needs the
		// samples, so phase B gets the larger share of the run.
		a := rig.phase(e, g, rig.dst, e.dur*2/5/n, 0, false)
		b := rig.phase(e, g, rig.dst, e.dur*3/5/n, e.sc.WireRate, false)
		err = rig.child.alive()
		rig.close()
		if err != nil {
			return err
		}
		rate.add(reduce(0, a.rate))
		lat.add(reduce(e.sc.MinSamples, b.lat))
		phases = append(phases, warm, a, b)
	}
	setup := metric{Value: median(setups), Unit: "s", N: len(setups), IQR: iqr(setups)}
	// As measured: an attach and a round trip through pepcd are milliseconds
	// of timer and scheduler granularity (its egress loop's idle park, the
	// runtime's network poll, a tick behind its busy-polling data worker),
	// which the host's CPU speed does not move.
	opMetrics(e, res, setup, rate, lat, nil, scaling{})
	wireChecks(res, phases...)
	return nil
}

// wireMaxLoss is the share of packets that may go missing before the run's
// outputs count as wrong. The window keeps what is in flight below what
// pepcd's socket buffer holds, so the seed commit loses none; every lost
// packet is a failed operation in the result line all the same. The run
// as a whole fails only when loss is beyond what a stalled host explains.
const wireMaxLoss = 0.01

// wireChecks applies the wire output checks to each instance's warm-up
// (phase W), closed-loop and open-loop phase, given in that order, and
// fills attempted/failed: a packet that never came back, came back twice,
// or came back with other bytes or another TEID than granted is a failed
// operation. A packet that arrives after its own phase ended is verified
// and counted by the next, so the counts are exact over an instance's
// phases together.
func wireChecks(res *result, phases ...phaseStats) {
	var lost int64
	for i, p := range phases {
		name := fmt.Sprintf("%d%c", i/3+1, "WAB"[i%3])
		res.Attempted += p.sent
		lost += p.lost()
		res.Failed += p.bad + p.dup
		if p.bad > 0 {
			res.fail("phase %s: %d packets came back with wrong bytes or TEID", name, p.bad)
		}
		if p.dup > 0 {
			res.fail("phase %s: %d packets came back twice", name, p.dup)
		}
		res.note("phase %s: sent %d, verified %d, missing %d, duplicate %d, reordered %d, slower than %v %d, window slots expired %d",
			name, p.sent, p.ok, p.lost(), p.dup, p.reordered, wireLateAfter, p.slow, p.expiry)
	}
	res.Failed += max(lost, 0)
	if share := float64(lost) / float64(res.Attempted); share > wireMaxLoss {
		res.fail("%d of %d packets lost (%.4f, above %.2f)", lost, res.Attempted, share, wireMaxLoss)
	}
}

// traceWire is wire-forward's traced run: generator calibration with no
// pepcd in between, a closed and an open phase against the child for the
// figures only the real process has (CPU split, rx/tx batching, its own
// latency histogram), then the in-process replica of pepcd's
// rx→steer→process→egress loop with the tracer off and on, then probes.
func traceWire(e env, res *result) error {
	rig, err := newWireRig(e)
	if err != nil {
		return err
	}
	defer rig.close()
	res.set("s1ap.attach_rtt_us", metric{Value: median(rig.attachRTT), Unit: "us", N: len(rig.attachRTT), IQR: iqr(rig.attachRTT)})
	res.set("sctp.retransmits", metric{Value: float64(rig.assoc.Stats().Retransmits), Unit: "count"})

	// The generator alone: its own socket is the destination.
	g := newWireGen(e.seed, rig.ues, rig.enbAddr)
	cal := rig.phase(e, g, rig.conn.LocalAddrPort(), e.dur/8, 0, true)
	ceiling := float64(cal.ok) / float64(cal.wallNs) * 1e3
	res.set("gen.ceiling_mpps", metric{Value: ceiling, Unit: "Mpps", N: int(cal.ok)})

	g = newWireGen(e.seed, rig.ues, rig.enbAddr)
	warm := rig.phase(e, g, rig.dst, e.sc.Warm/2, 0, false)
	before, _ := rig.child.usage()
	from := rig.child.statsLen()
	a := rig.phase(e, g, rig.dst, e.dur/4, 0, false)
	b := rig.phase(e, g, rig.dst, e.dur/4, e.sc.WireRate, false)
	if err := rig.child.alive(); err != nil {
		return err
	}
	childMetrics(res, rig.child, before, from, a.ok+b.ok)
	wireChecks(res, warm, a, b)
	setP50(res, reduce(e.sc.MinSamples, b.lat))
	mpps := float64(a.ok) / float64(a.wallNs) * 1e3
	res.set("pepcd.goodput_gbps", metric{Value: float64(a.innerBytes) * 8 / float64(a.wallNs), Unit: "Gbit/s", N: int(a.ok)})
	res.set("pepcd.reordered", metric{Value: float64(a.reordered + b.reordered), Unit: "count"})
	late := reduce(1, b.late)
	res.set("gen.late_p99_us", overWindows(late.p99, 1e-3, "us", late.samples))
	if mpps > 0.7*ceiling {
		res.note("GENERATOR-BOUND: phase A %.3f Mpps exceeds 70%% of the generator's %.3f Mpps ceiling", mpps, ceiling)
	} else {
		res.note("phase A %.3f Mpps is %.0f%% of the generator's %.3f Mpps ceiling", mpps, 100*mpps/ceiling, ceiling)
	}

	rep, err := newWireReplica(e, rig)
	if err != nil {
		return err
	}
	defer rep.close()
	off := rep.run(e.dur/8, nil)
	tr := newTracer()
	on := rep.run(e.dur/4, tr)
	res.Attempted += off.offered + on.offered
	res.Failed += off.offered - off.egress + on.offered - on.egress
	for st, name := range map[stage]string{
		stSockioRx: "sockio.rx_ns_per_pkt", stSockioTx: "sockio.tx_ns_per_pkt", stCoreSteer: "core.steer_ns_per_pkt",
		stCoreUL: "core.ul_ns_per_pkt", stCoreDL: "core.dl_ns_per_pkt", stGenSend: "gen.ns_per_pkt",
	} {
		res.set(name, metric{Value: tr.sums[st].perItem(), Unit: "ns", N: int(tr.sums[st].Items)})
	}
	if err := traceMetrics(e, res, tr, res.Workload, off, on); err != nil {
		return err
	}
	probeLayers(e, res, e.sc.WireUEs, true)
	return nil
}

// wireReplica is pepcd's wire data plane rebuilt in-process on one
// goroutine so each stage can be timed from outside: the same Receiver →
// WireSteer → slice rings → Process*Batch → egress ring → Sender chain
// over real loopback sockets, fed by and draining into the generator's
// socket.
type wireReplica struct {
	rig   *wireRig
	node  *pepc.Node
	slice *pepc.Slice
	conn  *sockio.Conn // the replica's GTP-U socket
	ues   []wireUE
	seed  uint64
}

func newWireReplica(e env, rig *wireRig) (*wireReplica, error) {
	rp := &wireReplica{rig: rig, seed: e.seed}
	rp.node = pepc.NewNode(pepc.SliceConfig{ID: 1, UserHint: e.sc.WireUEs})
	rp.slice = rp.node.Slice(0)
	for i := 0; i < e.sc.WireUEs; i++ {
		dl := dlTEIDTag | uint32(i+1)
		res, err := rp.node.AttachUser(0, pepc.AttachSpec{IMSI: uint64(i + 1), ENBAddr: rig.enbAddr, DownlinkTEID: dl,
			ECGI: 0x100, TAI: 1, AMBRUplink: 50e6, AMBRDownlink: 100e6}) // the AMBRs pepcd's HSS provisions
		if err != nil {
			return nil, err
		}
		rp.ues = append(rp.ues, wireUE{ulTEID: res.UplinkTEID, ueAddr: res.UEAddr, dlTEID: dl})
	}
	rp.slice.Data().SyncUpdates()
	var err error
	rp.conn, err = dataSocket()
	return rp, err
}

func (rp *wireReplica) close() { rp.conn.Close() }

// run drives bursts through the replica for d: send a burst, receive it
// on the replica's socket, steer, process, send what egress yields, and
// receive and check it at the generator's socket.
func (rp *wireReplica) run(d time.Duration, tr *tracer) loopStats {
	var st loopStats
	g := newWireGen(rp.seed, rp.ues, rp.rig.enbAddr)
	sink := newWireSink(g, int(d.Seconds()*2_000_000)+1<<16)
	genConn, repAddr := rp.rig.conn, rp.conn.LocalAddrPort()
	sgi := genConn.LocalAddrPort()
	genSnd := sockio.NewSender(genConn, wireBurst, time.Hour)
	genRcv := sockio.NewReceiver(genConn, rp.rig.pool, wireBurst)
	rcv := sockio.NewReceiver(rp.conn, rp.rig.pool, wireBurst)
	snd := sockio.NewSender(rp.conn, wireBurst, time.Hour)
	defer func() { genSnd.Close(); genRcv.Close(); rcv.Close(); snd.Close() }()
	ws := rp.node.NewWireSteer(wireBurst, rcv.Cache())
	peers := sockio.NewPeerTable()
	dp := rp.slice.Data()
	scratch := make([]*pkt.Buf, 0, wireBurst)
	up := make([]*pkt.Buf, wireBurst)
	dn := make([]*pkt.Buf, wireBurst)
	out := make([]*pkt.Buf, wireBurst)
	// recvAll reads until want datagrams arrived or nothing came for the
	// loss timeout.
	recvAll := func(r *sockio.Receiver, want int, each func(i int)) int {
		got := 0
		for got < want {
			r.Conn().UDPConn().SetReadDeadline(time.Now().Add(wireLossAfter))
			n, _ := r.Recv()
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				each(i)
			}
			got += n
		}
		return got
	}
	start := nowNs()
	end := start + int64(d)
	for {
		t0 := nowNs()
		if t0 >= end {
			break
		}
		tr.begin(t0)
		tr.stage(stGenSend)
		for i := 0; i < wireBurst; i++ {
			genSnd.Queue(g.next(t0, noSlot), repAddr)
		}
		genSnd.Flush()
		tr.items(wireBurst)

		tr.stage(stSockioRx)
		scratch = scratch[:0]
		n := recvAll(rcv, wireBurst, func(i int) {
			// pepcd's learnPeer: the outer source names the eNB's endpoint.
			if data := rcv.Buf(i).Bytes(); len(data) >= outerLen && data[9] == pkt.ProtoUDP {
				peers.Learn(uint32(data[12])<<24|uint32(data[13])<<16|uint32(data[14])<<8|uint32(data[15]), rcv.From(i))
			}
			scratch = append(scratch, rcv.Take(i))
		})
		tr.items(n)

		tr.stage(stCoreSteer)
		ws.Steer(scratch)
		tr.items(n)
		tr.stage(stRingDequeue)
		nu := rp.slice.Uplink.DequeueBatch(up)
		nd := rp.slice.Downlink.DequeueBatch(dn)
		tr.items(nu + nd)
		tr.stage(stCoreUL)
		dp.ProcessUplinkBatch(up[:nu], t0)
		tr.items(nu)
		tr.stage(stCoreDL)
		dp.ProcessDownlinkBatch(dn[:nd], t0)
		tr.items(nd)

		tr.stage(stRingEgress)
		m := rp.slice.Egress.DequeueBatch(out)
		tr.items(m)
		tr.stage(stSockioTx)
		for _, b := range out[:m] {
			to := sgi
			if !b.Meta.Uplink { // downlink leaves toward the learned eNB endpoint
				data := b.Bytes()
				to, _ = peers.Lookup(uint32(data[16])<<24 | uint32(data[17])<<16 | uint32(data[18])<<8 | uint32(data[19]))
			}
			snd.Queue(b, to)
		}
		snd.Flush()
		tr.items(m)

		tr.stage(stGenSink)
		now := nowNs()
		got := recvAll(genRcv, m, func(i int) { sink.take(genRcv.Buf(i).Bytes(), now) })
		tr.items(got)
		tr.end(got)
		st.offered += wireBurst
	}
	st.wallNs = nowNs() - start
	st.egress = sink.ok
	st.bad = sink.bad + sink.dup
	return st
}
