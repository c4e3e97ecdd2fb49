package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"log"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pepc"
	"pepc/internal/gtp"
	"pepc/internal/hdr"
	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/sctp"
	"pepc/internal/sockio"
	"pepc/internal/workload"
)

// childEnv makes the test binary behave as pepcd itself (TestMain), so
// the signal test drives the real main() — flags, signal handling, exit
// code — without building a second binary.
const childEnv = "PEPCD_TEST_AS_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testConfig is a loopback daemon on kernel-chosen ports.
func testConfig(slices, queues int, sgi netip.AddrPort) config {
	cfg := config{slices: slices, rxQueues: queues, subscribers: 100, stats: time.Hour,
		s1ap: "127.0.0.1:0", gtpu: "127.0.0.1:0", rxBatch: 16, txBatch: 8}
	if sgi.IsValid() {
		cfg.sgi = sgi.String()
	}
	return cfg
}

// startDaemon starts pepcd in-process and shuts it down with the test
// (a second shutdown after an explicit one is skipped).
func startDaemon(t *testing.T, cfg config) *daemon {
	t.Helper()
	d, err := start(cfg)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	t.Cleanup(func() {
		select {
		case <-d.stop:
		default:
			d.shutdown()
		}
	})
	return d
}

// sgiSink is the SGi next-hop: a socket with room for every packet a
// test sends, since nothing reads it while the daemon is being stopped.
func sgiSink(t *testing.T) (*net.UDPConn, netip.AddrPort) {
	t.Helper()
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	uc := pc.(*net.UDPConn)
	uc.SetReadBuffer(sockio.SocketBuffer)
	return uc, uc.LocalAddr().(*net.UDPAddr).AddrPort()
}

// dialGTPU opens a source socket toward the daemon's GTP-U address with
// a flush-on-demand sender on it.
func dialGTPU(t *testing.T, d *daemon) (*net.UDPConn, *sockio.Sender) {
	t.Helper()
	c, err := net.Dial("udp4", d.group.LocalAddrPort().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sio, err := sockio.NewConn(c.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	return c.(*net.UDPConn), sockio.NewSender(sio, 32, time.Hour)
}

func forwarded(node *pepc.Node) uint64 {
	var total uint64
	for i := 0; i < node.NumSlices(); i++ {
		total += node.Slice(i).Data().Forwarded.Load()
	}
	return total
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestPepcdOverRealUDP is the daemon-level integration test: pepcd as
// start() wires it, serving S1AP-over-SCTP and GTP-U on real loopback UDP
// sockets, driven the same way cmd/enbsim drives it — full attach with
// mutual authentication, then vectorized uplink bursts through the lane
// out to an SGi sink, a downlink packet back through the learned eNodeB
// tunnel endpoint, and finally a burst followed at once by shutdown,
// every packet of which must still come out.
func TestPepcdOverRealUDP(t *testing.T) {
	sink, sgi := sgiSink(t)
	cfg := testConfig(1, 1, sgi)
	cfg.lat = true
	d := startDaemon(t, cfg)
	node := d.node

	// eNodeB side, as cmd/enbsim does it.
	conn, err := net.Dial("udp", d.s1ap.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	assoc, err := pepc.SCTPDial(sctp.NewUDPWire(conn), pepc.SCTPConfig{Tag: 0x77})
	if err != nil {
		t.Fatalf("sctp dial over UDP: %v", err)
	}
	defer assoc.Close()

	base := pepc.NewENB(0xC0A83201, 1, 0x10, assoc)
	const ues = 5
	users := make([]workload.User, 0, ues)
	for i := 1; i <= ues; i++ {
		ue := pepc.NewUE(uint64(i))
		if err := base.Attach(ue); err != nil {
			t.Fatalf("attach %d over UDP: %v", i, err)
		}
		users = append(users, workload.User{IMSI: ue.IMSI, UplinkTEID: ue.UplinkTEID, UEAddr: ue.UEAddr})
	}

	// Uplink bursts over the GTP-U socket, vectorized as cmd/enbsim's
	// burst mode sends them, closed loop: the next burst goes once the
	// data plane has forwarded the last.
	dconn, snd := dialGTPU(t, d)
	defer snd.Close()
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: base.Addr}, users)
	want := uint64(512)
	if testing.Short() {
		want = 128
	}
	burst := func() {
		for i := 0; i < 32; i++ {
			if err := snd.Queue(gen.NextUplink(), netip.AddrPort{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := snd.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for sent := uint64(0); sent < want; {
		burst()
		sent += 32
		waitFor(t, 10*time.Second, "the burst to be forwarded", func() bool { return forwarded(node) >= sent })
	}
	if dp := node.Slice(0).Data(); dp.Missed.Load() != 0 || dp.Dropped.Load() != 0 || node.Demux().Unknown.Load() != 0 {
		t.Fatalf("missed=%d dropped=%d unknown=%d, want none", dp.Missed.Load(), dp.Dropped.Load(), node.Demux().Unknown.Load())
	}
	if sockio.Batched() {
		if st := d.group.Stats(); st.TxCalls >= st.TxPackets {
			t.Fatalf("lane made %d tx syscalls for %d packets; egress was not vectorized", st.TxCalls, st.TxPackets)
		}
	}
	checkWireLine(t, d)

	// Decapsulated uplink must actually arrive at the SGi next-hop: all
	// of it (the sink's buffer holds the lot).
	buf := make([]byte, 2048)
	readSink := func(n uint64) {
		t.Helper()
		sink.SetReadDeadline(time.Now().Add(10 * time.Second))
		for i := uint64(0); i < n; i++ {
			m, err := sink.Read(buf)
			if err != nil {
				t.Fatalf("SGi sink got %d of %d: %v (tx=%d errs=%d noroute=%d)", i, n, err,
					d.group.Stats().TxPackets, d.stats.egressErrs.Load(), d.stats.egressNoRoute.Load())
			}
			var ip pkt.IPv4
			if err := ip.DecodeFromBytes(buf[:m]); err != nil {
				t.Fatalf("SGi sink got a non-IP datagram: %v", err)
			}
			if ip.Protocol != pkt.ProtoUDP {
				t.Fatalf("SGi sink datagram not a decapped UE packet: src=%08x proto=%d", ip.Src, ip.Protocol)
			}
		}
	}
	readSink(want)

	// Downlink: plain IP toward a UE address, injected from the SGi side,
	// must come back GTP-U encapsulated to the eNodeB endpoint the rx
	// path learned (this very socket).
	down := gen.DownlinkFor(users[0])
	if _, err := sink.WriteToUDPAddrPort(down.Bytes(), d.group.LocalAddrPort()); err != nil {
		t.Fatal(err)
	}
	down.Free()
	dl := make([]byte, 2048)
	dconn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := dconn.Read(dl)
	if err != nil {
		t.Fatalf("downlink never reached the eNodeB endpoint: %v", err)
	}
	if teid, _, err := gtp.ParseOuter(dl[:n]); err != nil || teid == 0 {
		t.Fatalf("downlink at the eNodeB endpoint: TEID %#x, %v", teid, err)
	}

	// With -lat armed, the rx stamp must have flowed through the slice
	// to the egress flush: the wire-to-wire histogram is populated and
	// the stats-line suffix renders the tail.
	if d.lats[0].Count() == 0 {
		t.Fatal("wire-to-wire latency histogram recorded nothing despite rx stamping")
	}
	if suffix := latStatsSuffix(d.lats); !strings.Contains(suffix, "p99=") {
		t.Fatalf("latStatsSuffix = %q, want p50/p99/p999 rendering", suffix)
	}
	if latStatsSuffix(nil) != "" || latStatsSuffix([]*hdr.Histogram{hdr.New()}) != "" {
		t.Fatal("latStatsSuffix must be empty when -lat is off or nothing recorded")
	}

	// Drain-then-exit: bursts still in the GTP-U socket when shutdown
	// begins are read out, processed and flushed before it returns.
	const last = 8 * 32
	for i := 0; i < last/32; i++ {
		burst()
	}
	d.shutdown()
	readSink(last)
	if node.Slice(0).Data().Missed.Load() != 0 {
		t.Fatalf("missed=%d after shutdown drain", node.Slice(0).Data().Missed.Load())
	}
}

// detachSteering removes the cBPF steering program from a reuseport
// group, leaving the kernel's 4-tuple hash — the shape pepcd has on
// kernels that refuse the attach.
func detachSteering(g *sockio.Group) error {
	const soDetachReusePortBPF = 68 // SO_DETACH_REUSEPORT_BPF, Linux 5.3+
	rc, err := g.Queue(0).UDPConn().SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soDetachReusePortBPF, 0)
	}); err != nil {
		return err
	}
	return serr
}

// checkWireLine: the wire stats line keeps the prefix the benchmark
// parses (rx=… pkts/… calls tx=… pkts/… calls) and ends with the
// messages the kernel took for those tx packets and handed up for the
// rx packets — fewer where runs went out segmented or came in
// coalesced, never more.
func checkWireLine(t *testing.T, d *daemon) {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	d.logStats()
	log.SetOutput(os.Stderr)
	// pepcmark's wireLine (bench/pepcmark/child.go), copied verbatim.
	if !regexp.MustCompile(`wire: rx=(\d+) pkts/(\d+) calls tx=(\d+) pkts/(\d+) calls`).MatchString(buf.String()) {
		t.Fatalf("the benchmark's wire regex does not match %q", buf.String())
	}
	m := regexp.MustCompile(`wire: rx=(\d+) pkts/(\d+) calls tx=(\d+) pkts/(\d+) calls .* tx-msgs=(\d+) rx-msgs=(\d+)\n`).
		FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("no wire stats line ending in tx-msgs and rx-msgs in %q", buf.String())
	}
	for _, c := range [][2]string{{m[3], m[5]}, {m[1], m[6]}} {
		pkts, _ := strconv.ParseUint(c[0], 10, 64)
		msgs, _ := strconv.ParseUint(c[1], 10, 64)
		if pkts == 0 || msgs == 0 || msgs > pkts {
			t.Fatalf("wire line reports %d packets as %d kernel messages: %q", pkts, msgs, m[0])
		}
	}
}

// TestPepcdMultiQueue exercises two lanes end to end: a two-slice node
// behind a two-queue SO_REUSEPORT group, eight flows from two source
// sockets. Whichever way datagrams are spread — cBPF flow steering (TEID
// mod 2, so half of each slice's users arrive on the other lane's queue)
// or the kernel's 4-tuple hash (each source carries users of both
// slices, so whichever queue it lands on is foreign to half of them) —
// every packet must reach the SGi sink, each flow in exactly the order
// it was sent: a lane that steers into another lane's rings wakes it,
// and the hand-off reorders nothing. Under -race this is the concurrency
// guard for lanes sharing slice rings, the PeerTable and conn stats.
func TestPepcdMultiQueue(t *testing.T) {
	for _, mode := range []string{"steered", "hashed"} {
		t.Run(mode, func(t *testing.T) { multiQueue(t, mode == "steered") })
	}
}

func multiQueue(t *testing.T, steered bool) {
	sink, sgi := sgiSink(t)
	cfg := testConfig(2, 2, sgi)
	cfg.lat = true
	d := startDaemon(t, cfg)
	node := d.node
	if d.group.Size() != 2 {
		t.Skipf("no SO_REUSEPORT group here: %d queue(s)", d.group.Size())
	}
	if steered && !d.group.Steered() {
		t.Skip("kernel refused the cBPF steering attach")
	}
	if !steered && d.group.Steered() {
		if err := detachSteering(d.group); err != nil {
			t.Skipf("cannot detach the steering program: %v", err)
		}
	}

	// Users on both slices, demux-registered, as AttachUser wires them.
	const perSlice = 4
	var users []workload.User
	foreign := 0
	for si := 0; si < node.NumSlices(); si++ {
		for _, u := range attachUsers(t, node, si, perSlice*si+1, perSlice) {
			users = append(users, u)
			if int(u.UplinkTEID%2) != si {
				foreign++
			}
		}
	}
	if steered && foreign == 0 {
		t.Fatal("no user's TEID steers to the other lane's queue; the test would prove nothing")
	}

	// Two sources (enbsim -sources 2) on distinct local ports; flow u
	// always leaves from source u mod 2, so each flow has one 4-tuple.
	var senders []*sockio.Sender
	for s := 0; s < 2; s++ {
		_, snd := dialGTPU(t, d)
		defer snd.Close()
		senders = append(senders, snd)
	}
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 0xC0A83201}, users)

	perFlow := 64
	if testing.Short() {
		perFlow = 16
	}
	for seq := 0; seq < perFlow; seq++ {
		for u, user := range users {
			b := gen.UplinkFor(user)
			binary.BigEndian.PutUint32(b.Bytes()[b.Len()-4:], uint32(seq))
			if err := senders[u%2].Queue(b, netip.AddrPort{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, snd := range senders {
			if err := snd.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		sent := uint64((seq + 1) * len(users))
		waitFor(t, 10*time.Second, "the round to be forwarded", func() bool { return forwarded(node) >= sent })
	}

	// Every packet at the sink, each flow's sequence exact.
	next := make(map[uint32]uint32) // UE address → next expected sequence
	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < perFlow*len(users); i++ {
		n, err := sink.Read(buf)
		if err != nil {
			t.Fatalf("SGi sink got %d of %d: %v (noroute=%d errs=%d)", i, perFlow*len(users), err,
				d.stats.egressNoRoute.Load(), d.stats.egressErrs.Load())
		}
		var ip pkt.IPv4
		if err := ip.DecodeFromBytes(buf[:n]); err != nil {
			t.Fatalf("SGi sink got a non-IP datagram: %v", err)
		}
		if seq := binary.BigEndian.Uint32(buf[n-4 : n]); seq != next[ip.Src] {
			t.Fatalf("flow %08x: packet %d arrived where %d was due", ip.Src, seq, next[ip.Src])
		}
		next[ip.Src]++
	}
	for _, u := range users {
		if next[u.UEAddr] != uint32(perFlow) {
			t.Fatalf("flow %08x delivered %d of %d", u.UEAddr, next[u.UEAddr], perFlow)
		}
	}
	for i := 0; i < node.NumSlices(); i++ {
		if dp := node.Slice(i).Data(); dp.Missed.Load() != 0 || dp.Dropped.Load() != 0 {
			t.Fatalf("slice %d: missed=%d dropped=%d", i, dp.Missed.Load(), dp.Dropped.Load())
		}
	}

	// The per-lane histograms together must have seen the traffic, and
	// with flow steering both queues must have received some of it
	// (sequential TEIDs span both residues).
	merged := hdr.New()
	for _, h := range d.lats {
		merged.Merge(h)
	}
	if merged.Count() == 0 {
		t.Fatal("no wire-to-wire latency recorded on any lane")
	}
	if steered {
		for q := 0; q < d.group.Size(); q++ {
			if d.group.QueueStats(q).RxPackets == 0 {
				t.Fatalf("queue %d received no packets despite flow steering", q)
			}
		}
	}
}

// TestS1APPeerEviction covers serveS1AP's eviction: when an
// association's serving goroutine exits, the peer entry is evicted so the
// same remote address can attach again with a fresh association.
func TestS1APPeerEviction(t *testing.T) {
	d := startDaemon(t, testConfig(1, 1, netip.AddrPort{}))

	// An eNodeB restart: the S1AP source address (IP and port) stays the
	// same across rounds, but each round is a fresh socket and a fresh
	// association. Without eviction, round 2's INIT would be queued on the
	// dead round-1 wire and the handshake would stall.
	raddr, err := net.ResolveUDPAddr("udp", d.s1ap.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	var laddr *net.UDPAddr
	for round := 0; round < 2; round++ {
		conn, err := net.DialUDP("udp", laddr, raddr)
		if err != nil {
			t.Fatalf("round %d: dial: %v", round, err)
		}
		laddr = conn.LocalAddr().(*net.UDPAddr)

		type dialRes struct {
			a   *sctp.Assoc
			err error
		}
		ch := make(chan dialRes, 1)
		go func() {
			a, err := pepc.SCTPDial(sctp.NewUDPWire(conn), pepc.SCTPConfig{Tag: uint32(0x100 + round)})
			ch <- dialRes{a, err}
		}()
		var assoc *sctp.Assoc
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("round %d: sctp dial: %v", round, r.err)
			}
			assoc = r.a
		case <-time.After(15 * time.Second):
			t.Fatalf("round %d: handshake stalled — stale peer entry not evicted", round)
		}

		base := pepc.NewENB(0xC0A83201, 1, 0x10, assoc)
		ue := pepc.NewUE(uint64(10 + round))
		if err := base.Attach(ue); err != nil {
			t.Fatalf("round %d: attach: %v", round, err)
		}
		assoc.Close()
		conn.Close()
		// Give the serving goroutine time to exit and report itself gone.
		time.Sleep(300 * time.Millisecond)
	}
}

// TestPepcdSignals runs the real main() as a child process and checks the
// operator's contract for both shutdown signals: exit status 0, within
// 250 ms, with a burst that was still in the GTP-U socket when the signal
// arrived fully delivered to the SGi sink.
func TestPepcdSignals(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		t.Run(sig.String(), func(t *testing.T) { signalDrain(t, sig) })
	}
}

func signalDrain(t *testing.T, sig syscall.Signal) {
	sink, sgi := sgiSink(t)
	// Free ports, probed the way bench/pepcmark does and released for the
	// child to bind.
	var addrs [3]string
	var probes [3]*net.UDPConn
	for i := range addrs {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("loopback UDP unavailable: %v", err)
		}
		addrs[i], probes[i] = c.LocalAddr().String(), c
	}
	for _, c := range probes {
		c.Close()
	}
	cmd := exec.Command(os.Args[0], "-slices", "2", "-rxqueues", "2", "-s1ap", addrs[0], "-gtpu", addrs[1],
		"-n4", addrs[2], "-sgi", sgi.String(), "-stats", "1h", "-subscribers", "100")
	// (A race-enabled binary would otherwise sleep a second at exit.)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GORACE=atexit_sleep_ms=0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	ready := make(chan bool, 1)
	var logMu sync.Mutex
	var logLines []string
	childLog := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return "child stderr:\n  " + strings.Join(logLines, "\n  ")
	}
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logMu.Lock()
			logLines = append(logLines, sc.Text())
			logMu.Unlock()
			if strings.Contains(sc.Text(), " slices, ") && strings.Contains(sc.Text(), "GTP-U on") {
				ready <- true
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("child pepcd not serving after 10s")
	}

	// One PFCP session, then its first G-PDU end to end (which also shows
	// the establishment reached the data plane before its reply left).
	smf, err := pfcp.Dial(addrs[2], pkt.IPv4Addr(10, 255, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer smf.Close()
	smf.SetRetransmit(200*time.Millisecond, 5)
	if err := smf.Associate(); err != nil {
		t.Fatalf("associate: %v", err)
	}
	const teid = 0x5E10_0001
	ueAddr := pkt.IPv4Addr(45, 1, 0, 1)
	if _, err := smf.Establish(sessionRequest(teid, ueAddr, 0xD000_0001, 0xC0A83201, 1_000_000, 1_000_000)); err != nil {
		t.Fatalf("establish: %v", err)
	}
	gc, err := net.Dial("udp4", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()
	gio, err := sockio.NewConn(gc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	snd := sockio.NewSender(gio, 32, time.Hour)
	defer snd.Close()
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 0xC0A83201},
		[]workload.User{{IMSI: 1, UplinkTEID: teid, UEAddr: ueAddr}})
	buf := make([]byte, 2048)
	readSink := func(n int) {
		t.Helper()
		sink.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := 0; i < n; i++ {
			if _, err := sink.Read(buf); err != nil {
				t.Fatalf("SGi sink got %d of %d: %v\n%s", i, n, err, childLog())
			}
		}
	}
	snd.Queue(gen.NextUplink(), netip.AddrPort{})
	snd.Flush()
	readSink(1)

	// A burst, and the signal before the child can have read it all.
	const burst = 8 * 32
	for i := 0; i < burst; i++ {
		if err := snd.Queue(gen.NextUplink(), netip.AddrPort{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := snd.Flush(); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	<-logDone // stderr closes when the child exits
	waitErr := cmd.Wait()
	took := time.Since(t0)
	if waitErr != nil {
		t.Fatalf("child exit after %v: %v\n%s", sig, waitErr, childLog())
	}
	if took > 250*time.Millisecond {
		t.Fatalf("child took %v to exit after %v, want at most 250ms", took, sig)
	}
	readSink(burst)
	t.Logf("%v: exit 0 in %v, %d in-flight packets delivered", sig, took.Round(time.Microsecond), burst)
}
