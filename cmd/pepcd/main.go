// Command pepcd runs a PEPC node: it instantiates slices, wires the
// in-process HSS/PCRF backends through the node proxy, listens for
// S1AP-over-SCTP signaling on a UDP socket (one association per eNodeB)
// and optionally for N4 (PFCP) on another, and forwards GTP-U user
// traffic received on a third.
//
// The user plane is one loop, the lane (internal/lane): one goroutine per
// GTP-U queue owns the queue's socket and the slices assigned to it and
// runs every burst to completion — one recvmmsg lands a burst in
// pool-backed buffers, the burst steers through the node demux, the
// lane's slices process what reached their rings, and egress leaves with
// one sendmmsg, uplink toward the SGi next-hop, downlink back to the
// eNodeB tunnel endpoint learned from the uplink outer headers. An idle
// lane is parked in its socket read and costs no CPU; whatever else
// feeds its slices wakes it.
//
// The wire path scales past one core with -rxqueues N: the GTP-U address
// is served by an SO_REUSEPORT group of N sockets (sockio.Group), one
// lane each, slice i on queue i mod N. The only cross-queue structures
// are the rings of a slice another lane steers into, the read-mostly
// PeerTable and the per-conn atomic stats. Where the kernel accepts it, a
// cBPF program steers by flow (GTP TEID mod N, IPv4 dst mod N) so one
// UE's packets stay on one queue; otherwise the kernel's 4-tuple hash
// distributes across source ports.
//
// SIGINT and SIGTERM shut down drain-then-exit (daemon.shutdown).
//
// Usage:
//
//	pepcd -slices 2 -s1ap :36412 -gtpu :2152 -subscribers 100000
//	pepcd -config operator.json            # slices + PCC rules from file
//	pepcd -sgi 10.0.0.2:9000 -rxbatch 32
//	pepcd -slices 4 -rxqueues 4            # one lane per slice
//
// Pair it with cmd/enbsim, which attaches UEs over the same wire format
// and sources uplink traffic.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"net/netip"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pepc"
	"pepc/internal/hdr"
	"pepc/internal/lane"
	"pepc/internal/pkt"
	"pepc/internal/sctp"
	"pepc/internal/sockio"
)

// wireStats aggregates the daemon-level wire-path counters: signaling
// datagrams dropped on a full per-peer queue (SCTP retransmission
// recovers them), egress writes that failed, and packets dropped for want
// of a destination (no -sgi next-hop, or an eNodeB tunnel endpoint not yet
// learned from uplink). Datagrams sent are the sockets' own tx counter.
type wireStats struct {
	s1apDrops, egressErrs, egressNoRoute atomic.Uint64
}

// config is pepcd's command line.
type config struct {
	slices, subscribers, rxBatch, txBatch, rxQueues int
	s1ap, n4, gtpu, sgi, configPath, pprof          string
	stats                                           time.Duration
	lat                                             bool
}

func main() {
	var cfg config
	flag.IntVar(&cfg.slices, "slices", 1, "number of PEPC slices")
	flag.StringVar(&cfg.s1ap, "s1ap", ":36412", "UDP listen address for S1AP-over-SCTP signaling")
	flag.StringVar(&cfg.n4, "n4", "", "UDP listen address for N4 (PFCP) SMF signaling, e.g. :8805 (empty disables)")
	flag.StringVar(&cfg.gtpu, "gtpu", ":2152", "UDP listen address for GTP-U user traffic")
	flag.IntVar(&cfg.subscribers, "subscribers", 100_000, "subscribers to provision in the HSS (IMSIs from 1)")
	flag.DurationVar(&cfg.stats, "stats", 5*time.Second, "stats print interval")
	flag.StringVar(&cfg.configPath, "config", "", "operator configuration file (JSON); overrides -slices")
	flag.StringVar(&cfg.sgi, "sgi", "", "SGi next-hop for decapsulated uplink (host:port; empty drops+counts)")
	flag.IntVar(&cfg.rxBatch, "rxbatch", sockio.DefaultBatch, "GTP-U receive burst size (datagrams per recvmmsg)")
	flag.IntVar(&cfg.txBatch, "txbatch", sockio.DefaultBatch, "egress burst size (datagrams per sendmmsg)")
	flag.IntVar(&cfg.rxQueues, "rxqueues", 1, "GTP-U queues: SO_REUSEPORT sockets, one lane goroutine each (1 = single socket)")
	flag.BoolVar(&cfg.lat, "lat", false, "record wire-to-wire latency (rx stamp to egress flush) and report p50/p99/p999 in the stats line")
	flag.StringVar(&cfg.pprof, "pprof", "", "net/http/pprof listen address (empty disables)")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(cfg, stop); err != nil {
		log.Fatalf("pepcd: %v", err)
	}
}

// run serves cfg until stop closes, then shuts down drain-then-exit.
func run(cfg config, stop <-chan struct{}) error {
	d, err := start(cfg)
	if err != nil {
		return err
	}
	tick := time.NewTicker(cfg.stats)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			log.Print("pepcd: shutting down")
			d.shutdown()
			return nil
		case <-tick.C:
			d.logStats()
		}
	}
}

// daemon is a serving pepcd: the node, its sockets and the goroutines on
// them.
type daemon struct {
	node    *pepc.Node
	upf     *pepc.UPF // nil without -n4
	group   *sockio.Group
	n4      *sockio.Conn // nil without -n4
	s1ap    net.PacketConn
	sockets []io.Closer
	peers   *sockio.PeerTable
	lanes   []*lane.Lane
	lats    []*hdr.Histogram // one per lane with -lat, else nil
	stats   *wireStats

	stop    chan struct{}  // closed by shutdown: lanes and associations
	serving sync.WaitGroup // lanes, the N4 loop, the S1AP listener
}

// start builds the node, binds every listener — all of them before
// anything serves, so a taken port fails the start with nothing running
// or left open — and starts serving.
func start(cfg config) (_ *daemon, err error) {
	d := &daemon{stats: &wireStats{}, peers: sockio.NewPeerTable(), stop: make(chan struct{})}
	if cfg.configPath != "" {
		f, err := os.Open(cfg.configPath)
		if err != nil {
			return nil, err
		}
		opCfg, err := pepc.LoadOperatorConfig(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if d.node, err = pepc.BuildNode(opCfg); err != nil {
			return nil, err
		}
	} else {
		cfgs := make([]pepc.SliceConfig, cfg.slices)
		for i := range cfgs {
			cfgs[i] = pepc.SliceConfig{ID: i + 1, UserHint: cfg.subscribers / cfg.slices}
		}
		d.node = pepc.NewNode(cfgs...)
	}
	var sgi netip.AddrPort
	if cfg.sgi != "" {
		if sgi, err = netip.ParseAddrPort(cfg.sgi); err != nil {
			return nil, fmt.Errorf("-sgi: %w", err)
		}
	}
	if cfg.rxBatch <= 0 {
		cfg.rxBatch = sockio.DefaultBatch
	}
	if cfg.txBatch <= 0 {
		cfg.txBatch = sockio.DefaultBatch
	}

	defer func() {
		if err != nil {
			d.closeSockets()
		}
	}()
	if d.group, err = sockio.ListenGroup("udp", cfg.gtpu, cfg.rxQueues); err != nil {
		return nil, fmt.Errorf("gtpu listen: %w", err)
	}
	d.sockets = append(d.sockets, d.group)
	if d.s1ap, err = net.ListenPacket("udp", cfg.s1ap); err != nil {
		return nil, fmt.Errorf("s1ap listen: %w", err)
	}
	d.sockets = append(d.sockets, d.s1ap)
	if cfg.n4 != "" {
		pc, err := net.ListenPacket("udp", cfg.n4)
		if err != nil {
			return nil, fmt.Errorf("n4 listen: %w", err)
		}
		d.sockets = append(d.sockets, pc)
		if d.n4, err = sockio.NewConn(pc.(*net.UDPConn)); err != nil {
			return nil, fmt.Errorf("n4 listen: %w", err)
		}
	}

	if cfg.pprof != "" {
		go func() {
			log.Printf("pepcd: pprof on %s", cfg.pprof)
			log.Printf("pepcd: pprof server: %v", http.ListenAndServe(cfg.pprof, nil))
		}()
	}
	hss := pepc.NewHSS()
	hss.ProvisionRange(1, cfg.subscribers, 50e6, 100e6)
	d.node.AttachProxy(pepc.NewProxy(hss, pepc.NewPCRF()))

	// User plane: one lane per queue of the group (a single plain socket
	// at 1), slice i on queue i mod Q. Replies leave from the bound GTP-U
	// port, which every queue of the group shares.
	q := d.group.Size()
	if q < cfg.rxQueues {
		log.Printf("pepcd: multi-queue rx unavailable on this platform; running %d queue(s)", q)
	}
	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	for qi := 0; qi < q; qi++ {
		var own []*pepc.Slice
		for i := qi; i < d.node.NumSlices(); i += q {
			own = append(own, d.node.Slice(i))
		}
		var lat *hdr.Histogram
		if cfg.lat {
			lat = hdr.New()
			d.lats = append(d.lats, lat)
		}
		d.lanes = append(d.lanes, lane.New(d.node, d.group.Queue(qi), own, pool, d.peers, sgi,
			cfg.rxBatch, cfg.txBatch, q*max(cfg.rxBatch, cfg.txBatch), lat, &d.stats.egressErrs, &d.stats.egressNoRoute))
	}
	rxDone := new(sync.WaitGroup) // the lanes' drain barrier
	rxDone.Add(q)
	for qi, l := range d.lanes {
		d.serve(func() {
			if err := l.Run(d.stop, rxDone); err != nil {
				log.Printf("pepcd: lane %s stops: read: %v", d.group.Queue(qi).LocalAddrPort(), err)
			}
		})
	}

	// Signaling: each new S1AP peer address becomes one SCTP association
	// served by an S1AP server bound round-robin to a slice; over N4 the
	// 5G SMF drives sessions the UPF maps onto the same slices.
	d.serve(func() { serveS1AP(d.node, d.s1ap, d.stats, d.stop) })
	if d.n4 != nil {
		d.upf = pepc.NewUPF(d.node, localIPv4(d.n4.UDPConn()))
		d.serve(func() { d.upf.Serve(d.n4) })
		log.Printf("pepcd: N4 (PFCP) on %s", d.n4.LocalAddrPort())
	}

	mode := "fallback (one datagram per syscall)"
	if sockio.Batched() {
		mode = "recvmmsg/sendmmsg"
	}
	steer := "kernel 4-tuple hash"
	if d.group.Steered() {
		steer = "cBPF flow steering"
	}
	rcv, snd := d.group.BufferSizes()
	log.Printf("pepcd: GTP-U socket buffers per queue: rcv %d KiB, snd %d KiB (asked for %d KiB)",
		rcv>>10, snd>>10, sockio.SocketBuffer>>10)
	log.Printf("pepcd: %d slices, %d subscribers, S1AP on %s, GTP-U on %s (%s, rx burst %d, %d queue(s), %s)",
		d.node.NumSlices(), cfg.subscribers, d.s1ap.LocalAddr(), d.group.LocalAddrPort(), mode, cfg.rxBatch, q, steer)
	return d, nil
}

// serve runs fn on a goroutine shutdown waits for.
func (d *daemon) serve(fn func()) {
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		fn()
	}()
}

// shutdownCap bounds drain-then-exit (milliseconds unless overloaded):
// well under the 3 s after which bench/pepcmark kills the process.
const shutdownCap = 2 * time.Second

// shutdown stops serving without losing what is in flight: every lane
// reads out its socket, runs its rings dry and flushes (lane.Run); the
// N4 loop answers the burst it has gathered (a past read deadline ends
// it at its next read, after its write); the S1AP listener closes. It
// returns when they have all exited, or logs and returns at shutdownCap.
func (d *daemon) shutdown() {
	t0 := time.Now()
	close(d.stop)
	for _, l := range d.lanes {
		l.Kick()
	}
	if d.n4 != nil {
		d.n4.UDPConn().SetReadDeadline(time.Unix(1, 0))
	}
	d.s1ap.Close()
	done := make(chan struct{})
	go func() {
		d.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
		log.Printf("pepcd: drained and stopped in %v", time.Since(t0).Round(time.Microsecond))
	case <-time.After(shutdownCap):
		log.Printf("pepcd: still draining after %v; exiting with packets in flight", shutdownCap)
	}
	d.closeSockets()
}

func (d *daemon) closeSockets() {
	for _, c := range d.sockets {
		c.Close()
	}
}

// logStats prints the per-slice, N4 and wire counters.
func (d *daemon) logStats() {
	for i := 0; i < d.node.NumSlices(); i++ {
		s := d.node.Slice(i)
		log.Printf("slice %d: users=%d forwarded=%d dropped=%d missed=%d",
			i, s.Users(), s.Data().Forwarded.Load(), s.Data().Dropped.Load(), s.Data().Missed.Load())
	}
	if d.upf != nil {
		ns := d.upf.Stats()
		log.Printf("n4: sessions=%d established=%d modified=%d deleted=%d heartbeats=%d rejected=%d",
			d.upf.Sessions(), ns.Established, ns.Modified, ns.Deleted, ns.Heartbeats, ns.Rejected)
	}
	st := d.group.Stats()
	log.Printf("wire: rx=%d pkts/%d calls tx=%d pkts/%d calls peers=%d "+
		"egress sent=%d noroute=%d errs=%d s1ap-drops=%d%s%s",
		st.RxPackets, st.RxCalls, st.TxPackets, st.TxCalls, d.peers.Len(),
		st.TxPackets, d.stats.egressNoRoute.Load(),
		d.stats.egressErrs.Load(), d.stats.s1apDrops.Load(), queueStatsSuffix(d.group),
		latStatsSuffix(d.lats))
}

// latStatsSuffix renders the merged wire-to-wire latency tail appended
// to the wire stats line: " lat p50=… p99=… p999=…" in microseconds.
// Empty when -lat is off or nothing has been recorded yet.
func latStatsSuffix(lats []*hdr.Histogram) string {
	if len(lats) == 0 {
		return ""
	}
	m := hdr.New()
	for _, h := range lats {
		m.Merge(h)
	}
	if m.Empty() {
		return ""
	}
	us := func(v uint64) float64 { return float64(v) / 1e3 }
	return fmt.Sprintf(" lat p50=%.1fµs p99=%.1fµs p999=%.1fµs",
		us(m.Percentile(50)), us(m.Percentile(99)), us(m.Percentile(99.9)))
}

// queueStatsSuffix renders the per-queue rx/tx packet breakdown appended
// to the wire stats line for multi-queue groups (empty at one queue).
func queueStatsSuffix(group *sockio.Group) string {
	if group.Size() <= 1 {
		return ""
	}
	out := " queues="
	for i := 0; i < group.Size(); i++ {
		st := group.QueueStats(i)
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d:%d/%d", i, st.RxPackets, st.TxPackets)
	}
	return out
}

// localIPv4 extracts the listener's IPv4 as the UPF node identity,
// falling back to loopback for wildcard binds.
func localIPv4(pc net.PacketConn) uint32 {
	if ua, ok := pc.LocalAddr().(*net.UDPAddr); ok {
		if ip4 := ua.IP.To4(); ip4 != nil && !ip4.IsUnspecified() {
			return binary.BigEndian.Uint32(ip4)
		}
	}
	return pkt.IPv4Addr(127, 0, 0, 1)
}

// sctpBufSize is the pooled receive-copy size for signaling datagrams;
// every SCTP-over-UDP packet this wire produces fits (the association
// MTU is far below it). Larger datagrams fall back to a one-off
// allocation.
const sctpBufSize = 4096

// serveS1AP accepts one association per remote address over UDP, until
// pc closes. Signaling datagrams are copied into pooled buffers that
// recycle once the association has consumed them, a full per-peer queue
// counts a drop instead of silently discarding, and peers whose serving
// goroutine exited are evicted so a restarting eNodeB re-accepts cleanly.
// On the way out every association's wire is closed, which ends it.
func serveS1AP(node *pepc.Node, pc net.PacketConn, stats *wireStats, stop <-chan struct{}) {
	peers := make(map[string]*demuxWire)
	// gone carries the keys of ended associations back for eviction; the
	// buffer lets a wave of them end between two datagrams without
	// blocking (senders also give up at stop).
	gone := make(chan string, 128)
	next := 0
	bufPool := &sync.Pool{New: func() any { b := make([]byte, sctpBufSize); return &b }}
	rd := make([]byte, 64*1024)
	for {
		n, from, err := pc.ReadFrom(rd)
		if err != nil {
			for _, w := range peers {
				close(w.inCh)
			}
			return
		}
		// Evict peers whose association ended: the serving goroutine
		// reports its key on exit, and removing the entry lets the next
		// datagram from that address start a fresh association. Drained
		// after the read so an INIT from a restarted eNodeB is never
		// matched against an entry already reported gone.
		for {
			select {
			case key := <-gone:
				if w, ok := peers[key]; ok {
					delete(peers, key)
					w.drainRecycle()
				}
				continue
			default:
			}
			break
		}
		key := from.String()
		w, ok := peers[key]
		if !ok {
			w = newDemuxWire(pc, from, bufPool)
			peers[key] = w
			sliceIdx := next % node.NumSlices()
			next++
			tag := uint32(next + 1)
			go func(key string, w *demuxWire) {
				defer func() {
					select {
					case gone <- key:
					case <-stop:
					}
				}()
				assoc, err := pepc.SCTPAccept(w, pepc.SCTPConfig{Tag: tag})
				if err != nil {
					log.Printf("pepcd: accept from %s: %v", key, err)
					return
				}
				srv, err := node.ServeS1AP(sliceIdx, assoc)
				if err != nil {
					log.Printf("pepcd: bind slice %d: %v", sliceIdx, err)
					return
				}
				log.Printf("pepcd: eNodeB %s -> slice %d", key, sliceIdx)
				if err := srv.Serve(stop); err != nil {
					log.Printf("pepcd: association %s closed: %v", key, err)
				}
			}(key, w)
		}
		cp := w.getBuf(n)
		copy(cp, rd[:n])
		if !w.deliver(cp) {
			stats.s1apDrops.Add(1)
			w.recycle(cp)
		}
	}
}

// demuxWire adapts one remote address of a shared PacketConn to the SCTP
// Wire interface. Inbound datagrams are pooled copies: the association
// copies any payload it keeps before asking for the next packet, so each
// buffer recycles when the Recv after it is called.
type demuxWire struct {
	pc   net.PacketConn
	to   net.Addr
	inCh chan []byte
	pool *sync.Pool
	prev []byte // last buffer handed out by Recv, recycled on the next call
}

func newDemuxWire(pc net.PacketConn, to net.Addr, pool *sync.Pool) *demuxWire {
	return &demuxWire{pc: pc, to: to, inCh: make(chan []byte, 1024), pool: pool}
}

// getBuf returns an n-byte buffer, pooled when n fits the pooled size.
func (w *demuxWire) getBuf(n int) []byte {
	if n <= sctpBufSize {
		return (*w.pool.Get().(*[]byte))[:n]
	}
	return make([]byte, n)
}

// recycle returns a pooled buffer; one-off large buffers go to the GC.
func (w *demuxWire) recycle(b []byte) {
	if cap(b) >= sctpBufSize {
		b = b[:cap(b)]
		w.pool.Put(&b)
	}
}

// deliver hands an inbound datagram to the association, reporting whether
// it was accepted (false on queue overflow; SCTP retransmission recovers).
func (w *demuxWire) deliver(b []byte) bool {
	select {
	case w.inCh <- b:
		return true
	default:
		return false
	}
}

// drainRecycle reclaims datagrams still queued when the association ends.
// The buffer last handed out by Recv stays with the exited reader (GC).
func (w *demuxWire) drainRecycle() {
	for {
		select {
		case b := <-w.inCh:
			w.recycle(b)
		default:
			return
		}
	}
}

// Send implements sctp.Wire.
func (w *demuxWire) Send(b []byte) error {
	_, err := w.pc.WriteTo(b, w.to)
	return err
}

// Recv implements sctp.Wire. The previously returned buffer recycles
// here: the association never retains Recv'd bytes past its next Recv.
func (w *demuxWire) Recv() ([]byte, error) {
	if w.prev != nil {
		w.recycle(w.prev)
		w.prev = nil
	}
	b, ok := <-w.inCh
	if !ok {
		return nil, sctp.ErrWireClosed
	}
	w.prev = b
	return b, nil
}

// Close implements sctp.Wire.
func (w *demuxWire) Close() error { return nil }
