package experiments

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"pepc/internal/core"
	"pepc/internal/gtp"
	wirelane "pepc/internal/lane"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/sockio"
	"pepc/internal/workload"
)

// sockioWindows is the number of independent measurement windows folded
// (by max) into each data point.
const sockioWindows = 3

// sockioQueues are the queue counts of the multi-queue sweep.
var sockioQueues = []int{1, 2, 4}

// Sockio measures the syscall tax of the real-socket data plane and what
// vectorized I/O buys back (DESIGN.md §4.13): a traffic source and the
// node's event loops run as concurrent goroutines over loopback UDP —
// the deployed daemon shape, so the per-syscall baseline pays what the
// old per-packet loop really paid (one rx syscall, one tx syscall, and a
// netpoller park/unpark per datagram), while the batched and multi-queue
// series run pepcd's own lane (internal/lane), which amortizes all three
// across each burst: recvmmsg into pool buffers, the batched demux
// steer, the slice's data pass, and a coalesced sendmmsg egress. The
// sweep runs 64-byte packets at burst sizes 1-64; the in-memory series
// is the no-socket ceiling both wire paths converge toward.
func Sockio(sc Scale) (Result, error) {
	batches := []int{1, 2, 4, 8, 16, 32, 64}
	total := sc.PacketsPerPoint / 4
	if total < 2048 {
		total = 2048
	}
	nUsers := sc.users(1024)

	wire := sim.Series{Name: "PEPC loopback batched"}
	legacy := sim.Series{Name: "PEPC loopback per-packet"}
	mem := sim.Series{Name: "PEPC in-memory"}
	sys := sim.Series{Name: "syscalls per packet"}
	var totalLost int

	// The per-packet baseline is the system this subsystem replaced: the
	// old serveGTPU loop (one ReadFrom per datagram into a scratch
	// buffer, allocate-and-copy into the packet pool, per-packet locked
	// steer, one WriteTo per egress packet) driven by a per-packet
	// source, the pre-burst-mode enbsim. It has no burst dependence, so
	// it is measured once and drawn as a flat reference across the sweep.
	legacyMpps, legacyLost, err := sockioLegacyRun(total, nUsers)
	if err != nil {
		return Result{}, err
	}
	totalLost += legacyLost

	for _, b := range batches {
		mppsWire, sysPerPkt, lost, err := sockioWireRun(b, total, nUsers)
		if err != nil {
			return Result{}, err
		}
		totalLost += lost
		mppsMem, err := sockioMemRun(b, total, nUsers)
		if err != nil {
			return Result{}, err
		}
		x := float64(b)
		wire.Points = append(wire.Points, sim.Point{X: x, Y: mppsWire})
		legacy.Points = append(legacy.Points, sim.Point{X: x, Y: legacyMpps})
		mem.Points = append(mem.Points, sim.Point{X: x, Y: mppsMem})
		sys.Points = append(sys.Points, sim.Point{X: x, Y: sysPerPkt})
		gcNow()
	}

	bestWire := 0.0
	for _, p := range wire.Points {
		if p.Y > bestWire {
			bestWire = p.Y
		}
	}

	// Multi-queue sweep: aggregate rate over an SO_REUSEPORT group of
	// share-nothing queue lanes at the default burst size, the -rxqueues
	// scaling axis of cmd/pepcd.
	mq := sim.Series{Name: "PEPC loopback multi-queue"}
	qsteered := true
	for _, q := range sockioQueues {
		lr, steered, lost, err := sockioQueueRun(q, total, nUsers, sc.Lanes)
		if err != nil {
			return Result{}, err
		}
		totalLost += lost
		mq.Derived = lr.Derived
		if !steered {
			qsteered = false
		}
		mq.Points = append(mq.Points, sim.Point{X: float64(q), Y: lr.Mpps})
		gcNow()
	}

	mode := "portable fallback: one datagram per syscall regardless of burst"
	if sockio.Batched() {
		mode = "recvmmsg/sendmmsg: one kernel crossing per burst and direction"
	}
	steerNote := "multi-queue lanes share one address via SO_REUSEPORT with cBPF flow steering (TEID mod n)"
	if !qsteered {
		steerNote = "reuseport flow steering unavailable: multi-queue lanes emulated on separate sockets"
	}
	notes := []string{
		"closed loop over loopback UDP: source and node event loops run concurrently (the deployed daemon shape), flow-controlled one burst in flight",
		fmt.Sprintf("each point is the fastest of %d measurement windows (shields against scheduler interference)", sockioWindows),
		"syscalls/packet counts both directions of the node socket (rx reads incl. readiness probes + egress writes)",
		"per-packet reference: the replaced loop (ReadFrom + alloc/copy + locked steer + WriteTo, per-packet source), one syscall and one wakeup per datagram per direction",
		fmt.Sprintf("batched best %.3f Mpps = %.2fx the per-packet reference (%.3f Mpps)", bestWire, bestWire/legacyMpps, legacyMpps),
		mode,
		steerNote,
		"multi-queue " + lanesNote(mq.Derived),
		fmt.Sprintf("multi-queue aggregate at burst %d: %.3f Mpps at 1 queue, %.3f at 4 (%.2fx)",
			sockio.DefaultBatch, mq.Points[0].Y, mq.Points[2].Y, mq.Points[2].Y/mq.Points[0].Y),
	}
	if totalLost > 0 {
		notes = append(notes, fmt.Sprintf("%d datagrams lost on loopback across the sweep (excluded from rates)", totalLost))
	}
	return Result{
		Figure: "sockio",
		Title:  "Socket I/O batching: loopback Mpps and syscall tax vs burst size",
		XLabel: "burst (datagrams/syscall)",
		YLabel: "Mpps",
		Series: []sim.Series{wire, legacy, mem, sys, mq},
		Notes:  notes,
	}, nil
}

// sockioQueueLane is one share-nothing lane of the multi-queue sweep:
// its own node-side socket (a queue of the reuseport group) with its own
// slice and pepcd lane on it, and its own traffic source socket
// generating only flows steered to this lane (TEID ≡ lane mod queues,
// matching the group's cBPF program).
type sockioQueueLane struct {
	slice    *core.Slice
	node     *core.Node
	gen      *workload.TrafficGen
	nodeConn *sockio.Conn
	srcConn  *sockio.Conn
	srcAddr  netip.AddrPort
	srcSnd   *sockio.Sender
	back     []sockio.Message
	batch    int
	lost     int
	done     chan struct{}
}

// serveLane runs pepcd's lane for one slice on conn in a goroutine —
// burst-size rx and tx, a one-burst ring budget (the steerer hands the
// slice at most a burst per pass), egress echoed to src as SGi traffic —
// until the measuring side closes conn. The returned channel closes when
// the lane has exited.
func serveLane(node *core.Node, s *core.Slice, conn *sockio.Conn, pool *pkt.Pool, batch int, src netip.AddrPort) chan struct{} {
	var egressErrs, egressNoRoute atomic.Uint64
	l := wirelane.New(node, conn, []*core.Slice{s}, pool, sockio.NewPeerTable(), src,
		batch, batch, batch, nil, &egressErrs, &egressNoRoute)
	rxDone := new(sync.WaitGroup)
	rxDone.Add(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Run(nil, rxDone) // ends on the closed socket's read error
	}()
	return done
}

// iterate offers one burst of n uplink packets from the lane's source and
// waits for the echo, returning how many completed the round trip.
func (l *sockioQueueLane) iterate(n int) (int, error) {
	for i := 0; i < n; i++ {
		if err := l.srcSnd.Queue(l.gen.NextUplink(), netip.AddrPort{}); err != nil {
			return 0, err
		}
	}
	if err := l.srcSnd.Flush(); err != nil {
		return 0, err
	}
	l.srcConn.UDPConn().SetReadDeadline(time.Now().Add(2 * time.Second))
	returned := 0
	for returned < n {
		k, err := l.srcConn.ReadBatch(l.back[:min(l.batch, n-returned)])
		if err != nil {
			l.lost += n - returned
			break
		}
		returned += k
	}
	return returned, nil
}

// measure runs the lane's closed loop for quota packets and returns how
// many completed round trips.
func (l *sockioQueueLane) measure(quota int) (int, error) {
	processed := 0
	for processed < quota {
		n := l.batch
		if rem := quota - processed; rem < n {
			n = rem
		}
		returned, err := l.iterate(n)
		if err != nil {
			return processed, err
		}
		if returned == 0 {
			return processed, fmt.Errorf("sockio: loopback burst fully lost on a queue lane")
		}
		processed += returned
	}
	return processed, nil
}

// sockioQueueSetup builds the node (one slice per queue), the socket
// group, and the per-queue lanes. When the platform provides a steered
// reuseport group, all lanes share one local address and the kernel's
// cBPF program delivers each lane's flows to its queue; otherwise the
// lanes fall back to separate sockets (steered=false), preserving the
// share-nothing shape without the shared address.
func sockioQueueSetup(queues, nUsers, batch int) ([]*sockioQueueLane, func(), bool, error) {
	cfgs := make([]core.SliceConfig, queues)
	for i := range cfgs {
		cfgs[i] = core.SliceConfig{ID: i + 1, UserHint: nUsers}
	}
	node := core.NewNode(cfgs...)
	lanes := make([]*sockioQueueLane, queues)
	for s := 0; s < queues; s++ {
		sl := node.Slice(s)
		users, err := attachPopulation(sl, nUsers, 1+uint64(s)*uint64(nUsers))
		if err != nil {
			return nil, nil, false, err
		}
		// Lane s sources only flows the steering program sends to queue
		// s: sequential TEID allocation spans every residue class, so
		// the subset with TEID ≡ s (mod queues) is about 1/queues of the
		// attached population.
		lane := users[:0:0]
		for _, u := range users {
			if int(u.UplinkTEID%uint32(queues)) == s {
				lane = append(lane, u)
			}
		}
		if len(lane) == 0 {
			return nil, nil, false, fmt.Errorf("sockio: no flows with TEID residue %d of %d", s, queues)
		}
		lanes[s] = &sockioQueueLane{
			slice: sl,
			node:  node,
			batch: batch,
			gen: workload.NewTrafficGen(workload.TrafficConfig{
				ENBAddr:    pkt.IPv4Addr(192, 168, 0, 1),
				CoreAddr:   sl.Config().CoreAddr,
				UplinkSize: 64,
			}, lane),
		}
	}

	var closers []func()
	cleanup := func() {
		for _, c := range closers {
			c()
		}
	}
	group, err := sockio.ListenGroup("udp4", "127.0.0.1:0", queues)
	if err != nil {
		return nil, nil, false, fmt.Errorf("sockio: loopback unavailable: %w", err)
	}
	steered := group.Size() == queues && (queues == 1 || group.Steered())
	if steered {
		closers = append(closers, func() { group.Close() })
		for q, l := range lanes {
			l.nodeConn = group.Queue(q)
		}
	} else {
		// No steered reuseport group on this platform: one plain socket
		// per lane instead (distinct ports).
		group.Close()
		for _, l := range lanes {
			npc, err := net.ListenPacket("udp4", "127.0.0.1:0")
			if err != nil {
				cleanup()
				return nil, nil, false, fmt.Errorf("sockio: loopback unavailable: %w", err)
			}
			nc, err := sockio.NewConn(npc.(*net.UDPConn))
			if err != nil {
				npc.Close()
				cleanup()
				return nil, nil, false, err
			}
			l.nodeConn = nc
			closers = append(closers, func() { nc.Close() })
		}
	}
	for _, l := range lanes {
		euc, err := net.Dial("udp4", l.nodeConn.LocalAddrPort().String())
		if err != nil {
			cleanup()
			return nil, nil, false, err
		}
		sc, err := sockio.NewConn(euc.(*net.UDPConn))
		if err != nil {
			euc.Close()
			cleanup()
			return nil, nil, false, err
		}
		l.srcConn = sc
		l.srcAddr = euc.LocalAddr().(*net.UDPAddr).AddrPort()
		l.srcSnd = sockio.NewSender(sc, batch, time.Hour)
		l.back = make([]sockio.Message, batch)
		for i := range l.back {
			l.back[i].Buf = make([]byte, 2048)
		}
		closers = append(closers, func() { sc.Close() })
	}
	return lanes, cleanup, steered, nil
}

// sockioQueueRun measures one queue-count point of the multi-queue sweep:
// aggregate Mpps across the group's share-nothing lanes at the default
// burst size, fastest of sockioWindows runLanes passes. Each lane is a
// node loop plus its source, so running the sweep's widest point
// concurrently takes two goroutines per queue; measure-and-sum is honest
// here because the lanes share no mutable state beyond the kernel's
// socket layer (the other queues' lanes stay parked in Recv).
func sockioQueueRun(queues, total, nUsers int, mode string) (laneRate, bool, int, error) {
	batch := sockio.DefaultBatch
	qlanes, cleanup, steered, err := sockioQueueSetup(queues, nUsers, batch)
	if err != nil {
		return laneRate{}, false, 0, err
	}
	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	lanes := make([]lane, len(qlanes))
	for i, l := range qlanes {
		l.done = serveLane(l.node, l.slice, l.nodeConn, pool, l.batch, l.srcAddr)
		lanes[i] = l.measure
	}
	defer func() {
		cleanup()
		for _, l := range qlanes {
			<-l.done
		}
	}()
	lost := func() int {
		n := 0
		for _, l := range qlanes {
			n += l.lost
		}
		return n
	}

	laneQuota := total / sockioWindows / queues
	if laneQuota < batch {
		laneQuota = batch
	}
	warm := laneQuota / 4
	if warm > 1024 {
		warm = 1024
	}
	for _, l := range lanes {
		if _, err := l(warm); err != nil {
			return laneRate{}, steered, lost(), err
		}
	}
	gcNow()

	var best laneRate
	for w := 0; w < sockioWindows; w++ {
		lr, err := runLanes(mode, 2*sockioQueues[len(sockioQueues)-1], laneQuota, lanes)
		if err != nil {
			return laneRate{}, steered, lost(), err
		}
		if lr.Mpps >= best.Mpps {
			best = lr
		}
	}
	return best, steered, lost(), nil
}

// sockioNode builds the single-slice node and attached population every
// sockio point runs against.
func sockioNode(nUsers int) (*core.Node, *workload.TrafficGen, error) {
	node := core.NewNode(core.SliceConfig{ID: 1, UserHint: nUsers})
	s := node.Slice(0)
	// The bulk attach registers with the slice only; the node demux
	// steers its users by their identifiers' home prefix.
	users, err := attachPopulation(s, nUsers, 1)
	if err != nil {
		return nil, nil, err
	}
	gen := workload.NewTrafficGen(workload.TrafficConfig{
		ENBAddr:    pkt.IPv4Addr(192, 168, 0, 1),
		CoreAddr:   s.Config().CoreAddr,
		UplinkSize: 64,
	}, users)
	return node, gen, nil
}

// sockioSockets opens the node-side and source-side loopback sockets.
func sockioSockets() (*sockio.Conn, *sockio.Conn, netip.AddrPort, error) {
	npc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return nil, nil, netip.AddrPort{}, fmt.Errorf("sockio: loopback unavailable: %w", err)
	}
	nodeConn, err := sockio.NewConn(npc.(*net.UDPConn))
	if err != nil {
		npc.Close()
		return nil, nil, netip.AddrPort{}, err
	}
	euc, err := net.Dial("udp4", npc.LocalAddr().String())
	if err != nil {
		nodeConn.Close()
		return nil, nil, netip.AddrPort{}, err
	}
	srcConn, err := sockio.NewConn(euc.(*net.UDPConn))
	if err != nil {
		nodeConn.Close()
		euc.Close()
		return nil, nil, netip.AddrPort{}, err
	}
	return nodeConn, srcConn, euc.LocalAddr().(*net.UDPAddr).AddrPort(), nil
}

// sockioWireRun measures one burst-size point: pepcd's lane runs in a
// goroutine (blocking batched Recv, batched steer, the slice's data
// pass, coalesced egress send back to the source endpoint), while this
// goroutine plays
// cmd/enbsim in burst mode — send a burst, read the echoed burst back,
// repeat. One burst in flight keeps the loop flow-controlled; the wall
// clock at the source divided into the packets that completed the round
// trip is the system rate. Returns Mpps, syscalls/packet on the node
// socket, and datagrams lost.
func sockioWireRun(batch, total, nUsers int) (float64, float64, int, error) {
	node, gen, err := sockioNode(nUsers)
	if err != nil {
		return 0, 0, 0, err
	}
	s := node.Slice(0)
	nodeConn, srcConn, srcAddr, err := sockioSockets()
	if err != nil {
		return 0, 0, 0, err
	}
	defer srcConn.Close()

	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)

	// Node side: the daemon's lane.
	done := serveLane(node, s, nodeConn, pool, batch, srcAddr)

	// Source side: enbsim in burst mode.
	srcSnd := sockio.NewSender(srcConn, batch, time.Hour)
	back := make([]sockio.Message, batch)
	for i := range back {
		back[i].Buf = make([]byte, 2048)
	}
	lost := 0
	// iterate offers one burst of n and waits for the echo, returning how
	// many packets completed the round trip.
	iterate := func(n int) (int, error) {
		for i := 0; i < n; i++ {
			if err := srcSnd.Queue(gen.NextUplink(), netip.AddrPort{}); err != nil {
				return 0, err
			}
		}
		if err := srcSnd.Flush(); err != nil {
			return 0, err
		}
		srcConn.UDPConn().SetReadDeadline(time.Now().Add(2 * time.Second))
		returned := 0
		for returned < n {
			k, err := srcConn.ReadBatch(back[:min(batch, n-returned)])
			if err != nil {
				lost += n - returned
				break
			}
			returned += k
		}
		return returned, nil
	}

	warm := total / 10
	if warm > 2048 {
		warm = 2048
	}
	for w := 0; w < warm; w += batch {
		if _, err := iterate(batch); err != nil {
			nodeConn.Close()
			<-done
			return 0, 0, 0, err
		}
	}
	warmStats := nodeConn.Stats()
	warmCalls := warmStats.RxCalls + warmStats.TxCalls
	warmPkts := warmStats.RxPackets + warmStats.TxPackets

	// Measure in sockioWindows independent windows and keep the fastest:
	// on a shared host a scheduler-contention epoch can halve one
	// window's rate, and a single long window would fold that noise into
	// the point. The syscall tally spans all windows (counts, not rates,
	// so contention cannot skew it).
	gcNow()
	best := 0.0
	var ferr error
	for w := 0; w < sockioWindows && ferr == nil; w++ {
		processed := 0
		start := time.Now()
		for processed < total/sockioWindows {
			n := batch
			if rem := total/sockioWindows - processed; rem < n {
				n = rem
			}
			returned, err := iterate(n)
			if err != nil {
				ferr = err
				break
			}
			processed += returned
			if returned == 0 {
				// Persistent loss: bail rather than loop forever.
				ferr = fmt.Errorf("sockio: loopback burst fully lost at batch %d", batch)
				break
			}
		}
		if r := mpps(processed, time.Since(start)); r > best {
			best = r
		}
	}

	st := nodeConn.Stats()
	nodeConn.Close()
	<-done
	if ferr != nil {
		return 0, 0, lost, ferr
	}
	calls := (st.RxCalls + st.TxCalls) - warmCalls
	pkts := (st.RxPackets + st.TxPackets) - warmPkts
	sysPerPkt := 0.0
	if pkts > 0 {
		// Two packet traversals (rx + tx) per end-to-end packet.
		sysPerPkt = float64(calls) / (float64(pkts) / 2)
	}
	return best, sysPerPkt, lost, nil
}

// sockioLegacyRun measures the replaced system over the same loopback
// closed loop: the node goroutine runs the old per-packet serveGTPU shape
// (one ReadFrom per datagram into a scratch buffer, copy into a pool
// buffer, per-packet locked steer, one data pass, one WriteTo per
// egress packet) and the source offers one datagram per syscall, as the
// pre-burst-mode enbsim did.
func sockioLegacyRun(total, nUsers int) (float64, int, error) {
	node, gen, err := sockioNode(nUsers)
	if err != nil {
		return 0, 0, err
	}
	s := node.Slice(0)
	nodeConn, srcConn, srcAddr, err := sockioSockets()
	if err != nil {
		return 0, 0, err
	}
	defer srcConn.Close()
	nodeUDP := nodeConn.UDPConn()
	srcUDP := srcConn.UDPConn()

	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	done := make(chan struct{})
	go func() {
		defer close(done)
		raw := make([]byte, 64*1024)
		proc := make([]*pkt.Buf, 32)
		for {
			k, _, err := nodeUDP.ReadFrom(raw)
			if err != nil {
				return // socket closed by the measuring side
			}
			b := pool.Get()
			if err := b.SetBytes(raw[:k]); err != nil {
				b.Free()
				continue
			}
			if _, err := gtp.PeekTEID(b.Bytes()); err == nil {
				node.SteerUplink(b)
			} else {
				node.SteerDownlink(b)
			}
			s.RunPass(proc)
			for {
				eb, ok := s.Egress.Dequeue()
				if !ok {
					break
				}
				_, werr := nodeUDP.WriteToUDPAddrPort(eb.Bytes(), srcAddr)
				eb.Free()
				if werr != nil {
					return
				}
			}
		}
	}()

	back := make([]byte, 2048)
	lost := 0
	iterate := func() (int, error) {
		up := gen.NextUplink()
		_, err := srcUDP.Write(up.Bytes())
		up.Free()
		if err != nil {
			return 0, err
		}
		srcUDP.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := srcUDP.Read(back); rerr != nil {
			lost++
			return 0, nil
		}
		return 1, nil
	}

	warm := total / 10
	if warm > 2048 {
		warm = 2048
	}
	for w := 0; w < warm; w++ {
		if _, err := iterate(); err != nil {
			nodeConn.Close()
			<-done
			return 0, 0, err
		}
	}
	gcNow()
	best := 0.0
	var ferr error
	for w := 0; w < sockioWindows && ferr == nil; w++ {
		processed := 0
		misses := 0
		start := time.Now()
		for processed < total/sockioWindows {
			returned, err := iterate()
			if err != nil {
				ferr = err
				break
			}
			processed += returned
			if returned == 0 {
				if misses++; misses > 3 {
					ferr = fmt.Errorf("sockio: loopback unresponsive in per-packet run")
					break
				}
			}
		}
		if r := mpps(processed, time.Since(start)); r > best {
			best = r
		}
	}
	nodeConn.Close()
	<-done
	if ferr != nil {
		return 0, lost, ferr
	}
	return best, lost, nil
}

// sockioMemRun is the same closed loop without sockets: generate a burst,
// steer it through the demux, run one data pass, recycle egress.
func sockioMemRun(batch, total, nUsers int) (float64, error) {
	node, gen, err := sockioNode(nUsers)
	if err != nil {
		return 0, err
	}
	s := node.Slice(0)
	ws := node.NewWireSteer(batch, nil)
	burst := make([]*pkt.Buf, batch)
	proc := make([]*pkt.Buf, batch)

	iterate := func(n int) {
		for i := 0; i < n; i++ {
			burst[i] = gen.NextUplink()
		}
		ws.Steer(burst[:n])
		s.RunPass(proc)
		drainRing(s)
	}

	warm := total / 10
	if warm > 2048 {
		warm = 2048
	}
	for w := 0; w < warm; w += batch {
		iterate(batch)
	}
	gcNow()
	best := 0.0
	for w := 0; w < sockioWindows; w++ {
		processed := 0
		start := time.Now()
		for processed < total/sockioWindows {
			n := batch
			if rem := total/sockioWindows - processed; rem < n {
				n = rem
			}
			iterate(n)
			processed += n
		}
		if r := mpps(processed, time.Since(start)); r > best {
			best = r
		}
	}
	return best, nil
}
