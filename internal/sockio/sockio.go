// Package sockio is the vectorized UDP I/O layer between the kernel and
// PEPC's batch machinery: it reads and writes many datagrams per syscall
// boundary (recvmmsg/sendmmsg on Linux, with each same-destination,
// same-size run of datagrams sent as one UDP_SEGMENT message and, on a
// Receiver's socket, each run received as one UDP_GRO message; a
// portable one-at-a-time fallback elsewhere) and lands receive bursts in
// pool-backed pkt.Bufs with their encap headroom preserved, so the wire
// path feeds the same staged pipeline the in-memory substrate runs on.
//
// The layer has two levels. Conn wraps a *net.UDPConn with ReadBatch and
// WriteBatch over a caller-owned []Message — the raw vectorized syscall
// surface, allocation free in the steady state. Receiver and Sender sit
// on top and own the pkt.PoolCache glue: a Receiver turns UDP_GRO on
// where the kernel offers it, lands each coalesced run in a run-sized
// slot outside the Go heap and splits it into pool buffers, one per
// datagram (headroom intact), carrying what exceeds a batch over to the
// next Recv; a Sender coalesces egress buffers into gathered bursts,
// flushed when a batch fills or its owner ends a pass. A datagram longer
// than its buffer is never delivered clipped by a Receiver: it is
// dropped and counted (Stats.RxTrunc). PeerTable remembers which UDP
// endpoint each outer tunnel source address arrived from, so downlink
// egress can be routed back to the eNodeB's socket without
// configuration.
package sockio

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
)

// DefaultBatch is the default rx/tx burst size in datagrams — large
// enough to amortize a syscall across a data pass's batch (the paper's
// 32 packets), small enough that filling one adds no latency worth
// naming.
const DefaultBatch = 32

// Message describes one datagram of a batch: the payload region and the
// peer address. On receive, Buf is the scatter target (typically a
// pkt.Buf's RecvSlice), N is set to the length landed and Addr to the
// source; Truncated reports a datagram longer than Buf, of which N bytes
// (its head) were landed and the rest lost. On send, Buf[:N] is the
// datagram and Addr the destination; a zero Addr sends on the connected
// socket's peer.
type Message struct {
	Buf       []byte
	N         int
	Addr      netip.AddrPort
	Truncated bool

	// seg is the segment size of a message the kernel coalesced from a
	// run (UDP_GRO, on a Receiver's conn only): Buf[:N] then holds
	// datagrams of seg bytes, the last possibly shorter. 0 otherwise.
	seg int
}

// Stats counts the conn's syscall boundary: calls are actual kernel
// crossings, packets the datagrams they moved. syscalls/packet =
// Calls/Packets is the number the batching exists to shrink. TxMsgs and
// RxMsgs count the messages the kernel took and handed up: one per
// datagram, or one per segmented (tx) or coalesced (rx) run, so
// Packets/Msgs is the coalescing factor of each direction. RxTrunc
// counts received datagrams longer than the buffer meant for them:
// ReadBatch lands their head and marks them Truncated, a Receiver drops
// them.
type Stats struct {
	RxCalls   atomic.Uint64
	RxPackets atomic.Uint64
	RxMsgs    atomic.Uint64
	RxTrunc   atomic.Uint64
	TxCalls   atomic.Uint64
	TxPackets atomic.Uint64
	TxMsgs    atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	RxCalls   uint64
	RxPackets uint64
	RxMsgs    uint64
	RxTrunc   uint64
	TxCalls   uint64
	TxPackets uint64
	TxMsgs    uint64
}

// Conn is a UDP socket with vectorized batch I/O. At most one goroutine
// may read (ReadBatch, or a Receiver's Recv/Poll) and one WriteBatch
// concurrently;
// WriteBatch itself is internally serialized so several senders may
// share one socket.
type Conn struct {
	uc *net.UDPConn
	rc syscall.RawConn

	stats Stats

	rx rxState
	// txMu serializes WriteBatch callers sharing the conn.
	txMu sync.Mutex
	tx   txState

	// portable routes the conn through the one-datagram substrate
	// (batch_portable.go) where vectorized I/O exists: tests run the
	// same contract over both.
	portable bool
	// noGRO keeps a Receiver on this conn from turning UDP_GRO on, as
	// if the kernel had refused it: tests run the receive contract with
	// and without coalescing.
	noGRO bool
}

// NewConn wraps uc for batch I/O. The socket stays usable through uc
// (deadlines, close).
func NewConn(uc *net.UDPConn) (*Conn, error) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &Conn{uc: uc, rc: rc}
	c.initOS()
	return c, nil
}

// UDPConn returns the wrapped socket (for deadlines and addresses).
func (c *Conn) UDPConn() *net.UDPConn { return c.uc }

// LocalAddrPort returns the socket's bound address.
func (c *Conn) LocalAddrPort() netip.AddrPort {
	a, _ := c.uc.LocalAddr().(*net.UDPAddr)
	if a == nil {
		return netip.AddrPort{}
	}
	return a.AddrPort()
}

// Stats returns a snapshot of the syscall counters.
func (c *Conn) Stats() StatsSnapshot {
	return StatsSnapshot{
		RxCalls:   c.stats.RxCalls.Load(),
		RxPackets: c.stats.RxPackets.Load(),
		RxMsgs:    c.stats.RxMsgs.Load(),
		RxTrunc:   c.stats.RxTrunc.Load(),
		TxCalls:   c.stats.TxCalls.Load(),
		TxPackets: c.stats.TxPackets.Load(),
		TxMsgs:    c.stats.TxMsgs.Load(),
	}
}

// Close closes the underlying socket, unblocking pending batch calls.
func (c *Conn) Close() error { return c.uc.Close() }

// ReadBatch blocks until at least one datagram is available (or the
// socket's read deadline expires / the socket closes), then fills ms with
// as many datagrams as one kernel crossing yields, up to len(ms). It
// returns the count; ms[i].N, ms[i].Addr and ms[i].Truncated describe
// each datagram. Allocation free in the steady state.
//
// ReadBatch sees one message per datagram as long as no Receiver reads
// the conn: a Receiver turns UDP_GRO on for the socket's life, after
// which a run would arrive as one long message. No conn here is read
// both ways — pepcd's N4 loop reads its own socket, the lanes theirs.
func (c *Conn) ReadBatch(ms []Message) (int, error) { return c.read(ms, true) }

func (c *Conn) read(ms []Message, wait bool) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	var n int
	var err error
	if c.portable {
		n, err = c.fallbackReadBatch(ms, wait)
	} else {
		n, err = c.readBatch(ms, wait)
	}
	if n > 0 {
		// readBatch counts its own kernel crossings (including EAGAIN
		// probes); the message and datagram tallies live here.
		pkts, trunc := n, 0
		for i := range ms[:n] {
			if s := ms[i].seg; s > 0 && ms[i].N > s {
				pkts += (ms[i].N - 1) / s
			}
			if ms[i].Truncated {
				trunc++
			}
		}
		c.stats.RxMsgs.Add(uint64(n))
		c.stats.RxPackets.Add(uint64(pkts))
		if trunc > 0 {
			c.stats.RxTrunc.Add(uint64(trunc))
		}
	}
	return n, err
}

// WriteBatch sends every message in ms, looping on partial progress, and
// returns the count of datagrams sent. Where the kernel offers UDP
// segmentation offload, each run of messages to one destination with
// equal lengths (the last may be shorter) goes out as one segmented
// message, and the receiver still sees each datagram as sent.
// Allocation free in the steady state.
func (c *Conn) WriteBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	var n int
	var err error
	c.txMu.Lock()
	if c.portable {
		n, err = c.fallbackWriteBatch(ms)
	} else {
		n, err = c.writeBatch(ms)
	}
	c.txMu.Unlock()
	if n > 0 {
		// writeBatch counts its own kernel crossings (including
		// partial-resend loops); only the packet tally lives here.
		c.stats.TxPackets.Add(uint64(n))
	}
	return n, err
}

// ErrClosed is returned once batch I/O observes the socket closed.
var ErrClosed = errors.New("sockio: connection closed")

// PeerTable maps outer tunnel source addresses (the eNodeB's S1-U IPv4,
// host order) to the UDP endpoint the tunnel's packets arrive from, so
// downlink egress — whose outer destination is that same S1-U address —
// can be transmitted back over the wire without static routing. Lanes
// learn on receive and look up on transmit.
//
// It is one of the two cross-queue structures of the multi-queue data
// plane (Conn stats being the other) and is kept read-mostly: Lookup runs
// once per egress packet on every queue, while Learn only mutates on the
// first packet from a new eNodeB (or an eNodeB restart). The table is
// therefore copy-on-write — readers follow an atomic pointer to an
// immutable map (wait-free, no shared cache line bounced between queues)
// and the rare writer clones the map under a writer-only mutex.
type PeerTable struct {
	// mu serializes writers only; readers never take it.
	mu sync.Mutex
	p  atomic.Pointer[map[uint32]netip.AddrPort]
}

// NewPeerTable returns an empty table.
func NewPeerTable() *PeerTable {
	t := &PeerTable{}
	m := make(map[uint32]netip.AddrPort)
	t.p.Store(&m)
	return t
}

// Learn records ip → from. The common case (mapping already present and
// unchanged) is a wait-free read; a new or moved peer clones the map.
func (t *PeerTable) Learn(ip uint32, from netip.AddrPort) {
	if cur, ok := (*t.p.Load())[ip]; ok && cur == from {
		return
	}
	t.mu.Lock()
	// Re-check under the writer lock: a racing Learn may have already
	// published this exact mapping.
	old := *t.p.Load()
	if cur, ok := old[ip]; !ok || cur != from {
		next := make(map[uint32]netip.AddrPort, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[ip] = from
		t.p.Store(&next)
	}
	t.mu.Unlock()
}

// Lookup resolves the UDP endpoint for an outer destination address.
// Wait-free: it runs per egress burst on every queue concurrently.
func (t *PeerTable) Lookup(ip uint32) (netip.AddrPort, bool) {
	ap, ok := (*t.p.Load())[ip]
	return ap, ok
}

// Len returns the number of learned peers.
func (t *PeerTable) Len() int { return len(*t.p.Load()) }
