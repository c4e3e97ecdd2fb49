package sockio

import (
	"net"
	"net/netip"
)

// Group is the multi-queue socket substrate: n UDP sockets bound to the
// same local address via SO_REUSEPORT, each one an independent rx/tx lane
// with its own Conn (and therefore its own syscall scratch, stats, and tx
// serialization). The daemon runs one lane goroutine per queue, so rx
// parsing, demux steering, and tx syscalls all scale across cores with
// no shared hot state — the wire-path analogue of the share-nothing
// sharded data plane.
//
// Where the platform supports it, a classic-BPF program is attached to
// the reuseport group (SO_ATTACH_REUSEPORT_CBPF) steering datagrams by
// flow rather than by the kernel's default 4-tuple hash: GTP-U envelopes
// select the queue by TEID mod n and plain IPv4 by destination address
// mod n, so one UE's packets always land on one queue (per-flow ordering
// and cache affinity) even when every eNodeB sends from a single source
// port. When the program cannot be attached the group still works under
// the kernel's hash — distribution then needs source-port diversity.
//
// A group of one is byte-identical to a bare Conn: no SO_REUSEPORT, no
// steering program, just the single-socket path of the pre-multi-queue
// daemon. On platforms without reuseport support (the portable build-tag
// fallback) every requested size degrades to that single-socket group.
type Group struct {
	conns   []*Conn
	steered bool
}

// SocketBuffer is the SO_RCVBUF and SO_SNDBUF every queue of a group
// asks for: the kernel default (~208 KiB) holds about a hundred full-size
// datagrams, less than one scheduling hiccup at wire rates. The kernel
// clamps the request to net.core.{r,w}mem_max (BufferSizes reports it).
const SocketBuffer = 4 << 20

// ListenGroup binds n UDP sockets to addr as one reuseport group and
// wraps each for batch I/O. n <= 1 (and any n on the portable fallback)
// yields a single plain socket. addr may carry port 0: the first bind
// picks the port, the rest join it.
func ListenGroup(network, addr string, n int) (*Group, error) {
	g := &Group{}
	if n <= 1 {
		pc, err := net.ListenPacket(network, addr)
		if err != nil {
			return nil, err
		}
		c, err := NewConn(pc.(*net.UDPConn))
		if err != nil {
			pc.Close()
			return nil, err
		}
		g.conns = []*Conn{c}
	} else {
		var err error
		if g.conns, g.steered, err = listenGroupOS(network, addr, n); err != nil {
			return nil, err
		}
	}
	for _, c := range g.conns {
		// Best effort: a refused request leaves the kernel default.
		_ = c.uc.SetReadBuffer(SocketBuffer)
		_ = c.uc.SetWriteBuffer(SocketBuffer)
	}
	return g, nil
}

// BufferSizes returns the receive and send buffer sizes the kernel
// granted each queue, in bytes (0, 0 where the platform cannot say).
func (g *Group) BufferSizes() (rcv, snd int) { return g.conns[0].bufferSizes() }

// Size returns the number of queues actually open (which may be 1 on
// platforms without reuseport regardless of what was requested).
func (g *Group) Size() int { return len(g.conns) }

// Queue returns queue i's socket. With the steering program attached,
// queue i receives exactly the flows whose steering key is ≡ i (mod
// Size); under the kernel hash the mapping is opaque but stable per
// 4-tuple.
func (g *Group) Queue(i int) *Conn { return g.conns[i] }

// Steered reports whether the flow-steering cBPF program is attached
// (false on the portable fallback, on single-socket groups, and when the
// kernel refused the attach — the group then balances by 4-tuple hash).
func (g *Group) Steered() bool { return g.steered }

// LocalAddrPort returns the shared bound address of the group.
func (g *Group) LocalAddrPort() netip.AddrPort { return g.conns[0].LocalAddrPort() }

// Stats returns the syscall counters summed across every queue.
func (g *Group) Stats() StatsSnapshot {
	var agg StatsSnapshot
	for _, c := range g.conns {
		st := c.Stats()
		agg.RxCalls += st.RxCalls
		agg.RxPackets += st.RxPackets
		agg.TxCalls += st.TxCalls
		agg.TxPackets += st.TxPackets
	}
	return agg
}

// QueueStats returns queue i's own syscall counters (the per-queue
// breakdown the daemon folds into its wire stats line).
func (g *Group) QueueStats(i int) StatsSnapshot { return g.conns[i].Stats() }

// Close closes every queue socket, unblocking their batch calls.
func (g *Group) Close() error {
	var first error
	for _, c := range g.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
