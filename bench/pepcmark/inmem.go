package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pepc"
	"pepc/internal/core"
	"pepc/internal/gtp"
	"pepc/internal/pkt"
	"pepc/internal/workload"
)

// inmemBatch is the data loop's burst: the packets generated, steered,
// processed and drained in one iteration, and the unit a latency sample
// covers. 32 is the slice's update-sync interval and default batch.
const inmemBatch = 32

// Per-user identifiers the in-memory workloads assign: user i (0-based)
// has IMSI imsiBase+i and downlink TEID dlTEIDTag|(i+1); a handover moves
// it to hoTEIDTag|(i+1), so an egress packet names its user either way.
const (
	imsiBase  = 1_000_000
	dlTEIDTag = 0x0100_0000
	hoTEIDTag = 0x0200_0000
)

// inmemRig is the in-process node both inmem workloads drive: one slice,
// its attached population and a traffic generator over it.
type inmemRig struct {
	sc    scale
	node  *pepc.Node
	slice *pepc.Slice
	users []workload.User
	// targets users carry traffic; users[targets:] are the churn subset
	// the packet stream never draws, so a detach can never cause a miss.
	targets int
	gen     *workload.TrafficGen

	attachNs   float64 // core.attach_ns_per_user, from populate
	memPerUser float64 // state.mem_b_per_user, from populate
}

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func (r *inmemRig) attachSpec(i int) pepc.AttachSpec {
	// AMBRs far above any per-user rate the loop can reach: users are
	// policed (the limiter runs on every packet) and never drop.
	return pepc.AttachSpec{
		IMSI: imsiBase + uint64(i), ENBAddr: pkt.IPv4Addr(192, 168, 0, 1),
		DownlinkTEID: dlTEIDTag | uint32(i+1), ECGI: 1, TAI: 1,
		AMBRUplink: 1e9, AMBRDownlink: 1e9,
	}
}

// newInmemRig builds the node and attaches the population: the inmem
// workloads' set-up. With memory set it also sizes the population's heap
// footprint, which takes two forced collections and so is left out of
// the set-ups that are timed.
func newInmemRig(sc scale, memory bool) (*inmemRig, error) {
	r := &inmemRig{sc: sc, targets: sc.Users - sc.Churn}
	r.node = pepc.NewNode(pepc.SliceConfig{ID: 1, UserHint: sc.Users})
	r.slice = r.node.Slice(0)
	var empty uint64
	if memory {
		empty = heapInuse()
	}
	r.users = make([]workload.User, sc.Users)
	start := time.Now()
	for i := range r.users {
		res, err := r.node.AttachUser(0, r.attachSpec(i))
		if err != nil {
			return nil, fmt.Errorf("attach user %d: %w", i, err)
		}
		r.users[i] = workload.User{IMSI: imsiBase + uint64(i), UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr}
		if i%1024 == 1023 { // keep the control→data update queue bounded
			r.slice.Data().SyncUpdates()
		}
	}
	r.slice.Data().SyncUpdates()
	r.attachNs = float64(time.Since(start)) / float64(sc.Users)
	if memory {
		r.memPerUser = (float64(heapInuse()) - float64(empty)) / float64(sc.Users)
	}
	r.gen = pepc.NewTrafficGen(pepc.TrafficConfig{CoreAddr: r.slice.Config().CoreAddr}, r.users)
	return r, nil
}

// loopStats is what one pass of the data loop did.
type loopStats struct {
	offered, egress int64 // packets generated and packets dequeued from egress
	checked, bad    int64 // sampled packets byte-checked, and those that failed
	wallNs          int64
}

// byteCheck holds the 1-in-1024 sample of the current burst: the buffer
// (egress hands back the same *pkt.Buf), whose it is, and its inner
// bytes as generated.
type byteCheck struct {
	buf    *pkt.Buf
	uplink bool
	user   int
	inner  []byte
}

const outerLen = pkt.IPv4HeaderLen + pkt.UDPHeaderLen + gtp.HeaderLen

// verify checks a sampled packet as it leaves egress: uplink egress is
// the inner packet unchanged; downlink egress is a G-PDU whose outer IPv4
// checksum is valid, whose TEID is the user's (attach or handover tag)
// and whose payload is the inner packet.
func (c *byteCheck) verify(b *pkt.Buf) bool {
	data := b.Bytes()
	if c.uplink {
		return bytes.Equal(data, c.inner)
	}
	teid, hl, err := gtp.ParseOuter(data)
	if err != nil || !pkt.VerifyChecksum(data[:pkt.IPv4HeaderLen]) {
		return false
	}
	if tag := teid &^ 0x00FF_FFFF; teid&0x00FF_FFFF != uint32(c.user+1) || (tag != dlTEIDTag && tag != hoTEIDTag) {
		return false
	}
	return bytes.Equal(data[hl:], c.inner)
}

// run is the closed data loop, inline on one goroutine: draw a burst,
// build it with TrafficGen, steer it through the node demux into the
// slice rings, dequeue, process both directions, sync control updates,
// drain egress. One latency sample per burst (burst stamp → egress
// dequeued) goes to ser. tr times every stage of every burst;
// inline, when set, is the control thread's work run between bursts (the
// single-goroutine replica of inmem-mixed).
func (r *inmemRig) run(d time.Duration, seed uint64, tr *tracer, ser *series, inline *sigDriver) loopStats {
	var st loopStats
	choose := newPktChooser(seed, r.targets, 1, false)
	dp := r.slice.Data()
	in := make([]*pkt.Buf, inmemBatch)
	up := make([]*pkt.Buf, inmemBatch)
	dn := make([]*pkt.Buf, inmemBatch)
	out := make([]*pkt.Buf, 2*inmemBatch)
	var free pkt.PoolCache // binds to the generator's pool on first Put
	chk := byteCheck{inner: make([]byte, 0, 256)}
	start := nowNs()
	end := start + int64(d)
	var burst int64
	for {
		t0 := nowNs()
		if t0 >= end {
			break
		}
		tr.begin(t0)
		tr.stage(stGenBuild)
		sampleAt := -1
		if burst&31 == 0 { // one packet of one burst in 32: 1 in 1024
			sampleAt = int(burst>>5) & (inmemBatch - 1)
		}
		for i := range in {
			dr := choose.next()
			if dr.uplink {
				in[i] = r.gen.UplinkFor(r.users[dr.user])
			} else {
				in[i] = r.gen.DownlinkFor(r.users[dr.user])
			}
			if i == sampleAt {
				inner := in[i].Bytes()
				if dr.uplink {
					inner = inner[outerLen:]
				}
				chk = byteCheck{buf: in[i], uplink: dr.uplink, user: dr.user, inner: append(chk.inner[:0], inner...)}
			}
		}
		tr.items(inmemBatch)

		tr.stage(stCoreSteer)
		for i, b := range in {
			if i&3 == 0 {
				r.node.SteerUplink(b)
			} else {
				r.node.SteerDownlink(b)
			}
		}
		tr.items(inmemBatch)

		tr.stage(stRingDequeue)
		nu := r.slice.Uplink.DequeueBatch(up)
		nd := r.slice.Downlink.DequeueBatch(dn)
		tr.items(nu + nd)

		tr.stage(stCoreUL)
		dp.ProcessUplinkBatch(up[:nu], t0)
		tr.items(nu)
		tr.stage(stCoreDL)
		dp.ProcessDownlinkBatch(dn[:nd], t0)
		tr.items(nd)

		// The replica's control work runs here, so that what it queues is
		// what the explicit sync below applies; the batches sync on their
		// own every 32 packets, which would otherwise leave it nothing.
		if inline != nil {
			inline.step(nowNs(), tr)
		}
		tr.stage(stCoreSync)
		tr.items(dp.SyncUpdates())

		tr.stage(stRingEgress)
		got := 0
		for {
			m := r.slice.Egress.DequeueBatch(out)
			if m == 0 {
				break
			}
			for _, b := range out[:m] {
				if b == chk.buf {
					st.checked++
					if !chk.verify(b) {
						st.bad++
					}
				}
				free.Put(b)
			}
			got += m
		}
		chk.buf = nil
		tr.items(got)
		t1 := nowNs()
		if ser != nil {
			ser.add(t1, t1-t0, int64(got))
			ser.host.sample(t1)
		}
		st.offered += inmemBatch
		st.egress += int64(got)
		burst++
		tr.end(got)
	}
	st.wallNs = nowNs() - start
	free.Flush()
	return st
}

// sigDriver is the slice's control thread in inmem-mixed: it issues the
// seeded signaling schedule open loop — event k is due at t0 + k/rate
// whatever the control plane's pace — through EnqueueSignal, drains it
// with DrainSignaling, re-attaches every detached user, and times each
// event from its due time to the end of the drain that applied it.
type sigDriver struct {
	rig      *inmemRig
	sched    *sigSchedule
	t0       int64
	interval float64 // ns between events
	issued   int64   // events enqueued so far

	ser  *series // per-event latency and events per window
	late *series // generator lateness: enqueue time − due time

	due      []int64 // due times of events enqueued since the last drain
	reattach []int   // users detached since the last drain
	handed   []int   // most recent handed-over users, for the final check

	events, drains, detached, reattached int64
	failed                               int64 // ring-full enqueues and failed re-attaches
}

func newSigDriver(rig *inmemRig, seed uint64, t0 int64, d time.Duration) *sigDriver {
	n := int(float64(d)/1e9*rig.sc.SigRate) + 1024
	return &sigDriver{rig: rig, sched: newSigSchedule(seed, rig.targets, rig.sc.Churn),
		t0: t0, interval: 1e9 / rig.sc.SigRate,
		ser: newSeries(t0, rig.sc.Window, d, n), late: newSeries(t0, rig.sc.Window, d, n)}
}

func (c *sigDriver) nextDue() int64 { return c.t0 + int64(float64(c.issued)*c.interval) }

// step issues every event due by now, drains and re-attaches. It reports
// whether anything was due.
func (c *sigDriver) step(now int64, tr *tracer) bool {
	if c.nextDue() > now {
		return false
	}
	cp := c.rig.slice.Control()
	tr.stage(stCoreSigEnqueue)
	// At most one drain batch per step, so a stalled generator catches up
	// in bounded steps instead of overflowing the signaling ring.
	for c.nextDue() <= now && len(c.due) < 256 {
		due := c.nextDue()
		c.issued++
		dr := c.sched.next()
		u := c.rig.users[dr.user]
		ev := core.SigEvent{Kind: dr.kind, IMSI: u.IMSI}
		switch dr.kind {
		case core.SigS1Handover:
			ev.ENBAddr = pkt.IPv4Addr(192, 168, 1, 1)
			ev.DownlinkTEID = hoTEIDTag | uint32(dr.user+1)
			ev.ECGI = 2
			if len(c.handed) < 16 {
				c.handed = append(c.handed, dr.user)
			} else {
				c.handed[int(c.issued)&15] = dr.user
			}
		case core.SigQoSUpdate:
			ev.AMBRUplink, ev.AMBRDownlink = 2e9, 2e9
		case core.SigDetach:
			dup := false
			for _, i := range c.reattach {
				dup = dup || i == dr.user
			}
			if dup { // already detached in this batch: the draw becomes an attach-event
				ev.Kind = core.SigAttachEvent
			} else {
				c.reattach = append(c.reattach, dr.user)
			}
		}
		if !cp.EnqueueSignal(ev) {
			c.failed++
			continue
		}
		c.late.add(now, now-due, 0)
		c.due = append(c.due, due)
	}
	tr.items(len(c.due))

	tr.stage(stCoreSigDrain)
	applied := 0
	for {
		n := cp.DrainSignaling(0)
		if n == 0 {
			break
		}
		applied += n
		c.drains++
	}
	tr.items(applied)
	done := nowNs()
	for _, due := range c.due {
		c.ser.add(done, done-due, 1)
	}
	c.events += int64(len(c.due))
	c.due = c.due[:0]

	if len(c.reattach) > 0 {
		tr.stage(stCoreAttach)
		for _, i := range c.reattach {
			c.detached++
			res, err := c.rig.node.AttachUser(0, c.rig.attachSpec(i))
			if err != nil {
				c.failed++
				continue
			}
			c.reattached++
			c.rig.users[i].UplinkTEID, c.rig.users[i].UEAddr = res.UplinkTEID, res.UEAddr
		}
		tr.items(len(c.reattach))
		c.reattach = c.reattach[:0]
	}
	return true
}

// loop runs the control thread on its own goroutine until stop closes.
// With events 50 µs apart it never sleeps: like the paper's control core,
// it is dedicated, and yields between polls so the runtime can use the
// CPU when the data goroutine does not.
func (c *sigDriver) loop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		now := nowNs()
		if c.step(now, nil) {
			continue
		}
		if wait := c.nextDue() - now; wait > int64(200*time.Microsecond) {
			time.Sleep(time.Duration(wait) - 100*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// runMixed runs the data loop with the control thread beside it on a
// second goroutine, both over the same window grid.
func (r *inmemRig) runMixed(d time.Duration, seed uint64, ser *series, t0 int64) (loopStats, *sigDriver) {
	ctl := newSigDriver(r, seed, t0, d)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctl.loop(stop)
	}()
	st := r.run(d, seed, nil, ser, nil)
	close(stop)
	wg.Wait()
	return st, ctl
}

// checkMixed is inmem-mixed's end state check: the population is what
// attaches and detaches left, the arena agrees, nothing is queued, and a
// handed-over user's downlink leaves with the handover's TEID.
func (r *inmemRig) checkMixed(ctl *sigDriver) error {
	s := r.slice
	want := r.sc.Users + int(ctl.reattached) - int(ctl.detached)
	if s.Users() != want {
		return fmt.Errorf("users = %d, want %d (initial %d + %d re-attaches − %d detaches)",
			s.Users(), want, r.sc.Users, ctl.reattached, ctl.detached)
	}
	if live := s.ArenaLive(); live >= 0 && live != s.Users() {
		return fmt.Errorf("arena live = %d, users = %d", live, s.Users())
	}
	if n := s.Control().SignalBacklog(); n != 0 {
		return fmt.Errorf("signal backlog = %d after the run", n)
	}
	var free pkt.PoolCache
	defer free.Flush()
	one := make([]*pkt.Buf, 1)
	for _, i := range ctl.handed {
		r.node.SteerDownlink(r.gen.DownlinkFor(r.users[i]))
		if r.slice.Downlink.DequeueBatch(one) != 1 {
			return errors.New("handed-over user's downlink was not steered")
		}
		s.Data().ProcessDownlinkBatch(one, nowNs())
		b, ok := s.Egress.Dequeue()
		if !ok {
			return fmt.Errorf("handed-over user %d: downlink dropped", i)
		}
		teid, _, err := gtp.ParseOuter(b.Bytes())
		free.Put(b)
		if err != nil || teid != hoTEIDTag|uint32(i+1) {
			return fmt.Errorf("handed-over user %d egresses with TEID %#x, want %#x", i, teid, hoTEIDTag|uint32(i+1))
		}
	}
	return nil
}
