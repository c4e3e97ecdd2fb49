package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procSet tracks the child processes of a run so a signal that ends
// pepcmark early still stops and reaps every one of them.
type procSet struct {
	mu   sync.Mutex
	live map[*pepcd]struct{}
}

func newProcSet() *procSet { return &procSet{live: map[*pepcd]struct{}{}} }

func (ps *procSet) add(p *pepcd) {
	ps.mu.Lock()
	ps.live[p] = struct{}{}
	ps.mu.Unlock()
}

func (ps *procSet) remove(p *pepcd) {
	ps.mu.Lock()
	delete(ps.live, p)
	ps.mu.Unlock()
}

// stopAll stops every live child; for the signal handler.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	var all []*pepcd
	for p := range ps.live {
		all = append(all, p)
	}
	ps.mu.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// buildPepcd builds cmd/pepcd, the binary the child-process workloads
// start, into a temp directory that cleanup removes. A run builds it
// once, before any set-up is timed.
func buildPepcd() (bin string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "pepcmark-")
	if err != nil {
		return "", nil, err
	}
	bin = filepath.Join(dir, "pepcd")
	out, err := exec.Command("go", "build", "-o", bin, "pepc/cmd/pepcd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("go build pepc/cmd/pepcd: %w\n%s", err, out)
	}
	return bin, func() { os.RemoveAll(dir) }, nil
}

// freeUDPAddrs probes n free loopback UDP ports by binding them all and
// then releasing them, so the n are distinct. Another process could take
// one before the child binds; the child then fails to start and
// startPepcd probes again.
func freeUDPAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		addrs[i] = c.LocalAddr().String()
	}
	return addrs, nil
}

// statSample is one tick of pepcd's stats output: the cumulative wire
// counters, the slice's drop counters and, with -lat, the wire-to-wire
// latency since start.
type statSample struct {
	rxPkts, rxCalls, txPkts, txCalls uint64
	dropped, missed                  uint64
	latP50, latP99                   float64 // µs; 0 until recorded
}

var (
	wireLine  = regexp.MustCompile(`wire: rx=(\d+) pkts/(\d+) calls tx=(\d+) pkts/(\d+) calls`)
	latLine   = regexp.MustCompile(`lat p50=([\d.]+)µs p99=([\d.]+)µs`)
	sliceLine = regexp.MustCompile(`slice \d+: users=\d+ forwarded=\d+ dropped=(\d+) missed=(\d+)`)
)

// pepcd is one running child: cmd/pepcd on free loopback ports, its
// stderr parsed for the stats lines it prints every second.
type pepcd struct {
	cmd            *exec.Cmd
	set            *procSet
	s1ap, gtpu, n4 string
	ready, done    chan struct{}
	stopOnce       sync.Once
	mu             sync.Mutex
	cur            statSample // slice line seen, wire line pending
	samples        []statSample
	tail           []string // last stderr lines, for error reports
	waitErr        error
}

// startPepcd launches the binary with one slice and one rx queue,
// forwarding decapsulated uplink to sgi, and waits until it is serving.
// withN4 adds the PFCP listener. A child that exits before serving (a
// probed port was taken in the meantime) is started again on fresh ports,
// three times at most.
func startPepcd(e env, sgi netip.AddrPort, subscribers int, withN4 bool) (*pepcd, error) {
	var err error
	for try := 0; try < 3; try++ {
		var p *pepcd
		if p, err = startPepcdOnce(e, sgi, subscribers, withN4); err == nil {
			return p, nil
		}
	}
	return nil, err
}

func startPepcdOnce(e env, sgi netip.AddrPort, subscribers int, withN4 bool) (*pepcd, error) {
	p := &pepcd{set: e.procs, ready: make(chan struct{}), done: make(chan struct{})}
	addrs, err := freeUDPAddrs(3)
	if err != nil {
		return nil, err
	}
	p.s1ap, p.gtpu = addrs[0], addrs[1]
	args := []string{"-slices", "1", "-rxqueues", "1", "-s1ap", p.s1ap, "-gtpu", p.gtpu,
		"-sgi", sgi.String(), "-lat", "-stats", "1s", "-subscribers", strconv.Itoa(subscribers)}
	if withN4 {
		p.n4 = addrs[2]
		args = append(args, "-n4", p.n4)
	}
	p.cmd = exec.Command(e.pepcd, args...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pepcd: %w", err)
	}
	p.set.add(p)
	go p.read(stderr)
	select {
	case <-p.ready:
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("pepcd exited before serving: %v\n%s", p.waitErr, p.stderrTail())
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, fmt.Errorf("pepcd not serving after 10s\n%s", p.stderrTail())
	}
}

// read parses the child's stderr until it closes, then reaps the child.
func (p *pepcd) read(r io.Reader) {
	sc := bufio.NewScanner(r)
	isReady := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		if len(p.tail) == 20 {
			p.tail = p.tail[1:]
		}
		p.tail = append(p.tail, line)
		if m := sliceLine.FindStringSubmatch(line); m != nil {
			p.cur.dropped, _ = strconv.ParseUint(m[1], 10, 64)
			p.cur.missed, _ = strconv.ParseUint(m[2], 10, 64)
		}
		if m := wireLine.FindStringSubmatch(line); m != nil {
			s := p.cur
			s.rxPkts, _ = strconv.ParseUint(m[1], 10, 64)
			s.rxCalls, _ = strconv.ParseUint(m[2], 10, 64)
			s.txPkts, _ = strconv.ParseUint(m[3], 10, 64)
			s.txCalls, _ = strconv.ParseUint(m[4], 10, 64)
			if l := latLine.FindStringSubmatch(line); l != nil {
				s.latP50, _ = strconv.ParseFloat(l[1], 64)
				s.latP99, _ = strconv.ParseFloat(l[2], 64)
			}
			p.samples = append(p.samples, s)
		}
		p.mu.Unlock()
		// The start-up summary is logged after every listener is bound.
		if !isReady && strings.Contains(line, " slices, ") && strings.Contains(line, "GTP-U on") {
			isReady = true
			close(p.ready)
		}
	}
	p.waitErr = p.cmd.Wait()
	close(p.done)
}

func (p *pepcd) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return "pepcd stderr:\n  " + strings.Join(p.tail, "\n  ")
}

// stop interrupts the child the way an operator would (SIGINT is pepcd's
// shutdown signal), waits for it to exit, and kills it if it does not.
// It returns only after the child has been reaped. Safe to call twice.
func (p *pepcd) stop() {
	p.stopOnce.Do(func() {
		p.cmd.Process.Signal(os.Interrupt)
		select {
		case <-p.done:
		case <-time.After(3 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
		p.set.remove(p)
	})
}

// alive reports an error if the child has exited.
func (p *pepcd) alive() error {
	select {
	case <-p.done:
		return fmt.Errorf("pepcd exited during the run: %v\n%s", p.waitErr, p.stderrTail())
	default:
		return nil
	}
}

// statsSince returns the stats samples logged from index from on.
func (p *pepcd) statsSince(from int) []statSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]statSample(nil), p.samples[min(from, len(p.samples)):]...)
}

func (p *pepcd) statsLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.samples)
}

// usage is the child's resource use so far, read from /proc: CPU seconds
// in user and kernel mode and resident memory. Zero where /proc is not
// the Linux one.
type usage struct {
	user, sys float64 // seconds
	rssMB     float64
}

func (p *pepcd) usage() (usage, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return usage{}, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 22 {
		return usage{}, errors.New("unexpected /proc stat layout")
	}
	// f[0] is field 3 (state): utime, stime and rss are fields 14, 15, 24.
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	rss, _ := strconv.ParseFloat(f[21], 64)
	const userHz = 100 // USER_HZ is 100 on every Linux ABI Go targets
	return usage{user: ut / userHz, sys: st / userHz, rssMB: rss * float64(os.Getpagesize()) / (1 << 20)}, nil
}

// childMetrics fills the pepcd.* and sockio.*_per_call metrics from the
// child's resource use and stats lines over a timed phase of ops
// operations.
func childMetrics(res *result, p *pepcd, before usage, statsFrom int, ops int64) {
	after, err := p.usage()
	if err != nil {
		res.note("pepcd resource use unavailable: %v", err)
	} else if ops > 0 {
		res.set("pepcd.cpu_user_ns_per_op", metric{Value: (after.user - before.user) * 1e9 / float64(ops), Unit: "ns", N: int(ops)})
		res.set("pepcd.cpu_sys_ns_per_op", metric{Value: (after.sys - before.sys) * 1e9 / float64(ops), Unit: "ns", N: int(ops)})
		res.set("pepcd.rss_mb", metric{Value: after.rssMB, Unit: "MB"})
	}
	ss := p.statsSince(statsFrom)
	if len(ss) < 2 {
		res.note("pepcd logged %d stats lines in the phase; per-call figures need two", len(ss))
		return
	}
	a, b := ss[0], ss[len(ss)-1]
	if d := b.rxCalls - a.rxCalls; d > 0 {
		res.set("sockio.rx_pkts_per_call", metric{Value: float64(b.rxPkts-a.rxPkts) / float64(d), Unit: "count", N: int(d)})
	}
	if d := b.txCalls - a.txCalls; d > 0 {
		res.set("sockio.tx_pkts_per_call", metric{Value: float64(b.txPkts-a.txPkts) / float64(d), Unit: "count", N: int(d)})
	}
	res.set("pepcd.wire_lat_p50_us", metric{Value: b.latP50, Unit: "us"})
	res.set("pepcd.wire_lat_p99_us", metric{Value: b.latP99, Unit: "us"})
	res.set("core.fwd_dropped", metric{Value: float64(b.dropped - a.dropped), Unit: "count"})
	res.set("core.fwd_missed", metric{Value: float64(b.missed - a.missed), Unit: "count"})
}
