package sockio

import (
	"net/netip"
	"time"

	"pepc/internal/hdr"
	"pepc/internal/pkt"
	"pepc/internal/sim"
)

// Receiver lands rx bursts from a Conn in pool-backed packet buffers,
// each datagram in its own pkt.Buf with the pool's encap headroom
// preserved, refilled from a per-receiver PoolCache so the steady state
// touches the shared pool once per half-cache rather than once per
// packet. Single goroutine.
//
// Where the kernel offers it (probed per conn, no switch), the receiver
// turns UDP_GRO on, so a run of datagrams the kernel holds as one packet
// (a UDP_SEGMENT run over loopback, a NIC's GRO merge) is handed up as
// one message: one socket queueing and one reader wake-up per run rather
// than per datagram. Each of its batch recvmmsg slots lands in a
// run-sized (64 KiB) slot of a slab mapped outside the Go heap at
// construction and unmapped by Close — 2 MiB at the default batch — and
// Recv copies each datagram out into its own pool buffer; where the
// kernel refuses UDP_GRO, each slot simply holds one datagram. A read
// can land more datagrams than a batch: Recv returns at most batch of
// them, in arrival order, and the rest carry over to the next Recv or
// Poll, which serves them without a syscall and without parking, stamped
// (StampRx) with the clock read of the read that landed them.
//
// A datagram longer than a pool buffer's RecvSlice is dropped and
// counted in the conn's Stats.RxTrunc, never delivered clipped; so is
// a landing the kernel reports truncated (MSG_TRUNC, or MSG_CTRUNC,
// which may have cut the segment size).
type Receiver struct {
	conn  *Conn
	cache *pkt.PoolCache
	msgs  []Message        // the landing: msgs[i].Buf is slot i of slab
	bufs  []*pkt.Buf       // datagrams of the last Recv
	from  []netip.AddrPort // their sources
	n     int
	stamp bool
	short bool // the last read filled fewer landing slots than it had

	// The last read landed msgs[:landed]; the first datagram not yet
	// delivered starts at byte off of msgs[next], and ts is the read's
	// rx stamp.
	slab              []byte
	landed, next, off int
	ts                int64
}

// groSlot is a landing slot's size: any UDP payload, so any run.
const groSlot = 64 << 10

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
	r := &Receiver{
		conn:  conn,
		cache: pool.NewCache(cacheSize),
		msgs:  make([]Message, batch),
		bufs:  make([]*pkt.Buf, batch),
		from:  make([]netip.AddrPort, batch),
		slab:  mapLanding(batch * groSlot),
	}
	conn.enableGRO()
	for i := range r.msgs {
		r.msgs[i].Buf = r.slab[i*groSlot : (i+1)*groSlot : (i+1)*groSlot]
	}
	return r
}

// Conn returns the receiver's socket.
func (r *Receiver) Conn() *Conn { return r.conn }

// Cache returns the receiver's pool cache — shared with the steering
// stage so drops free back into the same per-worker level the refills
// come from.
func (r *Receiver) Cache() *pkt.PoolCache { return r.cache }

// StampRx enables ingress timestamping: every datagram of a Recv burst
// gets its Meta.TSNanos set from one clock read per kernel read (not
// per packet), arming downstream wire-to-wire latency recording. The
// sub-burst error this batching introduces is bounded by the burst's
// own kernel-copy time, plus, for a carried-over datagram, the passes
// it waited in the receiver — and errs toward over-reporting latency,
// never under.
func (r *Receiver) StampRx(on bool) { r.stamp = on }

// Recv returns the next burst of at most batch datagrams: the rest of
// the last read's runs if any carried over, else one batched read's.
// Each datagram i is in Buf(i) (length set, headroom intact) with its
// source address at From(i). Buffers not taken with Take before the
// next Recv are recycled. Blocks per the conn's read deadline, but never
// while datagrams are carried over.
func (r *Receiver) Recv() (int, error) { return r.recv(true) }

// Poll is Recv that never waits: 0 datagrams and a nil error mean the
// socket is empty right now. The portable substrate cannot poll and
// always reports nothing queued.
func (r *Receiver) Poll() (int, error) { return r.recv(false) }

// Drained reports whether the last Recv or Poll left nothing behind: no
// datagram carried over, and its read found fewer messages queued than
// it had slots for.
func (r *Receiver) Drained() bool { return r.short && r.next == r.landed }

func (r *Receiver) recv(wait bool) (int, error) {
	for {
		if r.next == r.landed {
			n, err := r.conn.read(r.msgs, wait)
			r.landed, r.next, r.off = n, 0, 0
			r.short = n < len(r.msgs)
			if n == 0 || err != nil {
				r.n = 0
				return 0, err
			}
			if r.stamp {
				r.ts = sim.Now()
			}
		}
		// Read again only when everything landed was dropped.
		if k := r.split(); k > 0 {
			r.n = k
			return k, nil
		}
	}
}

// split copies up to a batch of landed datagrams, in arrival order, out
// of the slab into pool buffers, one each, and returns how many.
func (r *Receiver) split() int {
	k := 0
	for k < len(r.bufs) && r.next < r.landed {
		m := &r.msgs[r.next]
		end := m.N // a truncated landing goes whole, counted by the conn
		if !m.Truncated {
			if m.seg > 0 && r.off+m.seg < end {
				end = r.off + m.seg
			}
			if r.bufs[k] == nil {
				r.bufs[k] = r.cache.Get()
			}
			b := r.bufs[k]
			if dst := b.RecvSlice(); end-r.off <= len(dst) {
				b.SetRecvLen(copy(dst, m.Buf[r.off:end]))
				if r.stamp {
					b.Meta.TSNanos = r.ts
				}
				r.from[k] = m.Addr
				k++
			} else {
				r.conn.stats.RxTrunc.Add(1)
			}
		}
		if r.off = end; r.off >= m.N {
			r.next++
			r.off = 0
		}
	}
	return k
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
func (r *Receiver) From(i int) netip.AddrPort { return r.from[i] }

// Close releases the receiver's cached buffers back to the shared pool
// and unmaps its landing slab; datagrams still carried over are dropped.
// The conn keeps UDP_GRO on.
func (r *Receiver) Close() {
	for i := range r.bufs {
		if r.bufs[i] != nil {
			r.cache.Put(r.bufs[i])
			r.bufs[i] = nil
		}
	}
	r.cache.Flush()
	for i := range r.msgs {
		r.msgs[i].Buf = nil
	}
	unmapLanding(r.slab)
	r.slab = nil
	r.landed, r.next, r.off = 0, 0, 0
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
