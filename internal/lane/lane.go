// Package lane is the data plane's loop over a socket: one GTP-U queue
// run to completion on one goroutine — the paper's data thread (§3.1)
// stretched from socket to socket. pepcd runs one lane per queue; the
// sockio figure measures the same loop.
package lane

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pepc/internal/core"
	"pepc/internal/hdr"
	"pepc/internal/pkt"
	"pepc/internal/sockio"
)

// Lane owns a queue's socket and is the data thread of the slices
// assigned to it (pepcd: slice i → queue i mod Q; a queue with no slice
// is an rx-only lane). One pass is Recv → learnPeer + Steer → each own
// slice's RunPass (sync, then its Uplink/Downlink rings through
// Process*Batch) → its Egress ring into the Sender → Flush, and the next
// Recv parks on the netpoller when nothing is left to do. The slice rings
// stay as the lane's inbox: what it steers to its own slices it dequeues
// in the same pass, and whatever else feeds them wakes it through waker
// (core.Waker). Steering reads only the node's Demux, and RunPass syncs
// before it processes, so an update pushed before a peer saw its reply
// (an N4 establishment, an attach) is in the indexes before the first
// packet that peer sends in response is looked up.
type Lane struct {
	conn  *sockio.Conn
	own   []*core.Slice
	waker core.Waker
	rcv   *sockio.Receiver
	snd   *sockio.Sender
	steer *core.WireSteer
	peers *sockio.PeerTable
	sgi   netip.AddrPort

	// egressErrs and egressNoRoute count failed egress writes and packets
	// with no destination (no SGi next-hop, or an eNodeB tunnel endpoint
	// not yet learned); the daemon owns them.
	egressErrs, egressNoRoute *atomic.Uint64

	burst []*pkt.Buf // the rx burst on its way to the steerer
	proc  []*pkt.Buf // ring dequeue scratch
}

// kicked is the read deadline a kick sets: an instant in the past makes
// the parked (or next) read return os.ErrDeadlineExceeded — no syscall,
// no extra descriptor.
var kicked = time.Unix(1, 0)

// New wires one queue and binds own's slices to it. Uplink egress goes
// to sgi, downlink to the eNodeB endpoint learned into peers. procBatch
// bounds what one pass takes from each ingress ring: at a burst from
// every queue, a slice fed by all of them drains as fast as it fills.
// lat, when non-nil, receives the lane's rx-stamp → egress-flush
// latencies (single writer).
func New(node *core.Node, conn *sockio.Conn, own []*core.Slice, pool *pkt.Pool, peers *sockio.PeerTable,
	sgi netip.AddrPort, rxBatch, txBatch, procBatch int, lat *hdr.Histogram, egressErrs, egressNoRoute *atomic.Uint64) *Lane {
	l := &Lane{conn: conn, own: own, peers: peers, sgi: sgi, egressErrs: egressErrs, egressNoRoute: egressNoRoute,
		rcv:   sockio.NewReceiver(conn, pool, rxBatch),
		snd:   sockio.NewSender(conn, txBatch, time.Hour), // flushed at the end of every pass
		burst: make([]*pkt.Buf, 0, rxBatch),
		proc:  make([]*pkt.Buf, procBatch),
	}
	l.rcv.StampRx(lat != nil)
	l.snd.SetLatency(lat)
	l.steer = node.NewWireSteer(rxBatch, l.rcv.Cache())
	l.waker.Kick = l.Kick
	for _, s := range own {
		s.BindData(&l.waker)
	}
	return l
}

// Kick makes the lane's read return; safe from any goroutine.
func (l *Lane) Kick() { l.conn.UDPConn().SetReadDeadline(kicked) }

// Run is the lane's goroutine: passes until stop closes (the closer
// kicks every lane) or the socket fails, then finish. It returns the
// read error that ended it, nil on stop. rxDone is the barrier every
// lane of a node reaches once its socket is read out (see finish).
func (l *Lane) Run(stop <-chan struct{}, rxDone *sync.WaitGroup) error {
	for {
		n, err := l.recv()
		if err != nil {
			// A kick, almost always. Clear it first: any kick wiped here
			// was for work queued before this line, which this pass or
			// the re-check in the next recv finds.
			l.conn.UDPConn().SetReadDeadline(time.Time{})
			select {
			case <-stop:
				l.finish(rxDone)
				return nil
			default:
			}
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				l.finish(rxDone)
				return err
			}
		}
		l.pass(n)
	}
}

// recv reads the next burst, parking in the read only when no slice of
// the lane has work: Parked is published first and the inboxes checked
// after, so a producer that missed the flag is seen here and one that
// saw it kicks the read.
func (l *Lane) recv() (int, error) {
	l.waker.Parked.Store(true)
	for _, s := range l.own {
		if s.DataPending() {
			l.waker.Parked.Store(false)
			return l.rcv.Poll()
		}
	}
	n, err := l.rcv.Recv()
	l.waker.Parked.Store(false)
	return n, err
}

// pass runs an rx burst of n datagrams, and whatever else waits in the
// lane's rings, to completion.
func (l *Lane) pass(n int) {
	if n > 0 {
		for i := 0; i < n; i++ {
			learnPeer(l.peers, l.rcv.Buf(i).Bytes(), l.rcv.From(i))
		}
		l.burst = l.rcv.TakeAll(l.burst[:0])
		l.steer.Steer(l.burst)
	}
	for _, s := range l.own {
		s.RunPass(l.proc)
		for m := s.Egress.DequeueBatch(l.proc); m > 0; m = s.Egress.DequeueBatch(l.proc) {
			for _, b := range l.proc[:m] {
				l.transmit(b)
			}
		}
	}
	if l.snd.Flush() != nil {
		l.egressErrs.Add(1)
	}
}

// transmit stages one forwarded packet: uplink (decapsulated plain IP)
// to the SGi next-hop, downlink (re-encapped GTP-U) to the eNodeB whose
// tunnel address is in the outer header, resolved through the PeerTable.
func (l *Lane) transmit(b *pkt.Buf) {
	dst := l.sgi
	if !b.Meta.Uplink {
		dst = netip.AddrPort{}
		if data := b.Bytes(); len(data) >= pkt.IPv4HeaderLen {
			dst, _ = l.peers.Lookup(binary.BigEndian.Uint32(data[16:20]))
		}
	}
	if !dst.IsValid() {
		l.egressNoRoute.Add(1)
		l.snd.Cache().Put(b)
	} else if l.snd.Queue(b, dst) != nil {
		l.egressErrs.Add(1)
	}
}

// finish is the lane's half of drain-then-exit: read out what the kernel
// still holds for the queue, wait until every lane has done the same (so
// none steers into a ring whose owner has left), run the rings dry,
// flush, and hand the slices and buffers back.
func (l *Lane) finish(rxDone *sync.WaitGroup) {
	for {
		n, err := l.rcv.Poll()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			l.conn.UDPConn().SetReadDeadline(time.Time{}) // a late kick
			continue
		}
		l.pass(n)
		if n < cap(l.burst) {
			break // a short burst: the socket is empty
		}
	}
	rxDone.Done()
	rxDone.Wait()
	for pending := true; pending; {
		l.pass(0)
		pending = false
		for _, s := range l.own {
			pending = pending || s.DataPending()
		}
	}
	l.rcv.Close()
	l.snd.Close()
	for _, s := range l.own {
		s.ReleaseData()
	}
}

// learnPeer records the outer source address of anything shaped like a
// GTP-U envelope (IPv4 carrying UDP), mapping the eNodeB's tunnel-plane
// IPv4 to the UDP endpoint it actually sends from, so downlink egress can
// address it. A stray learn keyed by a non-eNB source is never looked up.
func learnPeer(peers *sockio.PeerTable, data []byte, from netip.AddrPort) {
	if len(data) < pkt.IPv4HeaderLen+pkt.UDPHeaderLen || data[0]>>4 != 4 || data[9] != pkt.ProtoUDP {
		return
	}
	peers.Learn(binary.BigEndian.Uint32(data[12:16]), from)
}
