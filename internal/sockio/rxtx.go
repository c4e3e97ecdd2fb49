package sockio

import (
	"net/netip"
	"time"

	"pepc/internal/hdr"
	"pepc/internal/pkt"
	"pepc/internal/sim"
)

// Receiver scatters rx bursts from a Conn directly into pool-backed
// packet buffers: one ReadBatch lands up to batch datagrams, each in its
// own pkt.Buf with the pool's encap headroom preserved, refilled from a
// per-receiver PoolCache so the steady state touches the shared pool once
// per half-cache rather than once per packet. Single goroutine.
type Receiver struct {
	conn  *Conn
	cache *pkt.PoolCache
	msgs  []Message
	bufs  []*pkt.Buf
	n     int
	stamp bool
}

// NewReceiver builds a receiver reading bursts of up to batch datagrams
// into buffers drawn from pool.
func NewReceiver(conn *Conn, pool *pkt.Pool, batch int) *Receiver {
	if batch <= 0 {
		batch = DefaultBatch
	}
	cacheSize := 4 * batch
	if cacheSize < pkt.DefaultCacheSize {
		cacheSize = pkt.DefaultCacheSize
	}
	return &Receiver{
		conn:  conn,
		cache: pool.NewCache(cacheSize),
		msgs:  make([]Message, batch),
		bufs:  make([]*pkt.Buf, batch),
	}
}

// Conn returns the receiver's socket.
func (r *Receiver) Conn() *Conn { return r.conn }

// Cache returns the receiver's pool cache — shared with the steering
// stage so drops free back into the same per-worker level the refills
// come from.
func (r *Receiver) Cache() *pkt.PoolCache { return r.cache }

// StampRx enables ingress timestamping: every datagram of a Recv burst
// gets its Meta.TSNanos set from one clock read per burst (not per
// packet), arming downstream wire-to-wire latency recording. The
// sub-burst error this batching introduces is bounded by the burst's
// own kernel-copy time — far below the histogram's bucket width at
// realistic rates — and errs toward over-reporting latency, never
// under.
func (r *Receiver) StampRx(on bool) { r.stamp = on }

// Recv performs one batched read and returns the number of datagrams
// landed. Each datagram i is in Buf(i) (length set, headroom intact) with
// its source address at From(i). Buffers not taken with Take before the
// next Recv are recycled. Blocks per the conn's read deadline.
func (r *Receiver) Recv() (int, error) { return r.recv(true) }

// Poll is Recv that never waits: 0 datagrams and a nil error mean the
// socket is empty right now. The portable substrate cannot poll and
// always reports nothing queued.
func (r *Receiver) Poll() (int, error) { return r.recv(false) }

func (r *Receiver) recv(wait bool) (int, error) {
	for i := range r.bufs {
		if r.bufs[i] == nil {
			r.bufs[i] = r.cache.Get()
		}
		r.msgs[i].Buf = r.bufs[i].RecvSlice()
	}
	n, err := r.conn.read(r.msgs, wait)
	for i := 0; i < n; i++ {
		if serr := r.bufs[i].SetRecvLen(r.msgs[i].N); serr != nil {
			// Datagram larger than the buffer (truncated by the kernel):
			// drop it rather than forward a clipped packet.
			r.bufs[i].SetRecvLen(0)
		}
	}
	if r.stamp && n > 0 {
		now := sim.Now()
		for i := 0; i < n; i++ {
			r.bufs[i].Meta.TSNanos = now
		}
	}
	r.n = n
	return n, err
}

// Buf returns datagram i of the last Recv without transferring ownership.
func (r *Receiver) Buf(i int) *pkt.Buf { return r.bufs[i] }

// Take transfers ownership of datagram i to the caller; the next Recv
// draws a fresh buffer for that slot.
func (r *Receiver) Take(i int) *pkt.Buf {
	b := r.bufs[i]
	r.bufs[i] = nil
	return b
}

// TakeAll transfers ownership of every datagram of the last Recv,
// appending them to dst in arrival order.
func (r *Receiver) TakeAll(dst []*pkt.Buf) []*pkt.Buf {
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.bufs[i])
		r.bufs[i] = nil
	}
	return dst
}

// From returns the source address of datagram i of the last Recv.
func (r *Receiver) From(i int) netip.AddrPort { return r.msgs[i].Addr }

// Close releases the receiver's cached buffers back to the shared pool.
func (r *Receiver) Close() {
	for i := range r.bufs {
		if r.bufs[i] != nil {
			r.cache.Put(r.bufs[i])
			r.bufs[i] = nil
		}
	}
	r.cache.Flush()
}

// Sender coalesces egress packet buffers into gathered tx bursts: Queue
// stages a buffer for a destination, a full batch flushes in one
// WriteBatch, and the owner flushes a partial batch when its pass ends —
// nothing lingers on a clock. Sent buffers are released through a
// PoolCache so the free path is batched too. Single goroutine; several
// senders may share one Conn.
type Sender struct {
	conn  *Conn
	msgs  []Message
	bufs  []*pkt.Buf
	n     int
	eager bool // flush on every Queue
	cache pkt.PoolCache
	lat   *hdr.Histogram
}

// NewSender builds a sender flushing bursts of up to batch datagrams. A
// negative linger flushes every Queue immediately; any other value
// leaves partial batches to the caller's Flush (the parameter once
// carried a time budget and keeps its place for existing callers).
func NewSender(conn *Conn, batch int, linger time.Duration) *Sender {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Sender{
		conn:  conn,
		msgs:  make([]Message, batch),
		bufs:  make([]*pkt.Buf, batch),
		eager: linger < 0,
	}
}

// Cache returns the sender's free-side pool cache (bound lazily by the
// first flushed buffer). Callers that drop packets instead of queueing
// them (no route, closed peer) should free through it so the drop path
// stays batched, and sources that build packets to send can draw from it
// so the sender's free cycle feeds its own allocation.
func (s *Sender) Cache() *pkt.PoolCache { return &s.cache }

// Pending returns the number of staged, unflushed datagrams.
func (s *Sender) Pending() int { return s.n }

// SetLatency arms wire-to-wire latency recording: each Flush records
// now − Meta.TSNanos for every stamped datagram it transmits, with one
// clock read per flushed burst. Recording at flush (not at Queue)
// charges the wait for the rest of the burst to the packet — what a
// coalescing egress actually imposes on the wire. Pass nil to disable.
func (s *Sender) SetLatency(h *hdr.Histogram) { s.lat = h }

// Queue stages b for transmission to dst, taking ownership. A zero dst
// sends on the connected socket's peer. The batch flushes when full (or
// on every Queue for an eager sender).
func (s *Sender) Queue(b *pkt.Buf, dst netip.AddrPort) error {
	s.msgs[s.n].Buf = b.Bytes()
	s.msgs[s.n].N = b.Len()
	s.msgs[s.n].Addr = dst
	s.bufs[s.n] = b
	s.n++
	if s.n == len(s.msgs) || s.eager {
		return s.Flush()
	}
	return nil
}

// Flush transmits every staged datagram in one vectorized write and
// releases their buffers. Buffers are released on error too (the packets
// are gone either way).
func (s *Sender) Flush() error {
	if s.n == 0 {
		return nil
	}
	_, err := s.conn.WriteBatch(s.msgs[:s.n]) // the conn's stats count what left
	if s.lat != nil {
		s.recordLat(sim.Now())
	}
	for i := 0; i < s.n; i++ {
		s.cache.Put(s.bufs[i])
		s.bufs[i] = nil
	}
	s.n = 0
	return err
}

// recordLat records now − TSNanos for every stamped staged datagram,
// one RecordN per run of equal stamps: a Receiver stamps a whole rx
// burst with one clock read, so a forwarded burst is a few runs.
func (s *Sender) recordLat(now int64) {
	var ts int64
	var n uint64
	for i := 0; i < s.n; i++ {
		if t := s.bufs[i].Meta.TSNanos; t != ts {
			if ts != 0 {
				s.lat.RecordN(now-ts, n)
			}
			ts, n = t, 0
		}
		n++
	}
	if ts != 0 {
		s.lat.RecordN(now-ts, n)
	}
}

// Close flushes pending datagrams and spills the free-side cache.
func (s *Sender) Close() error {
	err := s.Flush()
	s.cache.Flush()
	return err
}
