// Package pkt provides the packet substrate for PEPC: mbuf-style buffers
// with reserved headroom so tunnel encapsulation can prepend headers without
// copying, pooled allocation so the steady-state data path is allocation
// free, and zero-copy codecs for the protocol layers the EPC data plane
// touches (Ethernet, IPv4, UDP, TCP and, in package gtp, GTP-U).
//
// The decode API follows the gopacket DecodingLayer style: callers hold
// preallocated layer structs and call DecodeFromBytes on them, so decoding a
// packet performs no allocation. Serialization prepends, mirroring
// gopacket's SerializeTo contract.
package pkt

import (
	"errors"
	"fmt"
	"sync"

	"pepc/internal/ring"
)

// Buffer geometry. DefaultHeadroom is sized to fit the largest
// encapsulation the EPC data plane prepends: outer Ethernet (14) + IPv4 (20)
// + UDP (8) + GTP-U (12 with options) plus slack.
const (
	DefaultBufSize  = 2048
	DefaultHeadroom = 128
)

// Common errors returned by buffer operations.
var (
	ErrNoHeadroom = errors.New("pkt: insufficient headroom")
	ErrNoTailroom = errors.New("pkt: insufficient tailroom")
	ErrTooShort   = errors.New("pkt: buffer too short")
)

// Buf is an mbuf-style packet buffer. The packet occupies data[off:off+len].
// Prepending consumes headroom (bytes before off); appending consumes
// tailroom (bytes after off+len). Buf is not safe for concurrent use; the
// single-writer discipline of the PEPC data path guarantees exclusive
// ownership while a packet is being processed.
type Buf struct {
	data []byte
	off  int
	len  int

	// Meta carries per-packet metadata set by earlier pipeline stages so
	// later stages need not re-parse. It is reset when the buffer returns
	// to its pool.
	Meta Metadata

	pool *Pool
}

// Metadata is scratch state attached to a packet as it moves through a
// pipeline: the owning user, the parsed 5-tuple, tunnel id and timestamps.
type Metadata struct {
	// TEID is the GTP-U tunnel endpoint id for uplink traffic, or the
	// tunnel selected for downlink encapsulation.
	TEID uint32
	// UEIP is the user device's IP address (host byte order) used to map
	// downlink traffic to a user.
	UEIP uint32
	// Flow is the inner 5-tuple, filled by the parse stage for the PCEF.
	Flow Flow
	// TSNanos is the generator or RX timestamp used for latency
	// measurement, in nanoseconds of an arbitrary monotonic epoch.
	TSNanos int64
	// OuterLen is the byte count of the validated outer IPv4+UDP+GTP-U
	// envelope, recorded by the demux's single outer parse (gtp.ParseOuter).
	// Meaningful only while OuterParsed is set.
	OuterLen uint16
	// Uplink records the traffic direction chosen by the demux stage.
	Uplink bool
	// OuterParsed marks TEID and OuterLen as carrying a validated outer
	// parse, letting the slice decapsulate with a bounds-checked TrimFront
	// instead of re-walking the outer headers. Cleared by the decap.
	OuterParsed bool
	// FlowParsed marks Flow as filled by an earlier stage (the downlink
	// demux parses the inner header to steer by UE address), so the slice
	// parse stage can skip its own header walk.
	FlowParsed bool
	// Paged marks a downlink packet already parked once for an idle
	// user; a second pass while still idle drops it.
	Paged bool
}

// NewBuf allocates an unpooled buffer with the given capacity and headroom
// reserved. It is intended for tests and slow paths; the data path should
// use a Pool.
func NewBuf(size, headroom int) *Buf {
	if size <= 0 {
		size = DefaultBufSize
	}
	if headroom < 0 || headroom > size {
		headroom = 0
	}
	return &Buf{data: make([]byte, size), off: headroom}
}

// Bytes returns the current packet contents. The slice aliases the buffer:
// it is valid until the next Prepend/Append/Reset/Free.
func (b *Buf) Bytes() []byte { return b.data[b.off : b.off+b.len] }

// Len returns the packet length in bytes.
func (b *Buf) Len() int { return b.len }

// Headroom returns the number of bytes available for Prepend.
func (b *Buf) Headroom() int { return b.off }

// Tailroom returns the number of bytes available for Append.
func (b *Buf) Tailroom() int { return len(b.data) - b.off - b.len }

// Reset empties the packet and restores the requested headroom.
func (b *Buf) Reset(headroom int) {
	if headroom < 0 || headroom > len(b.data) {
		headroom = 0
	}
	b.off = headroom
	b.len = 0
	b.Meta = Metadata{}
}

// SetBytes replaces the packet contents with p, preserving headroom.
func (b *Buf) SetBytes(p []byte) error {
	if len(p) > len(b.data)-b.off {
		return ErrNoTailroom
	}
	copy(b.data[b.off:], p)
	b.len = len(p)
	return nil
}

// RecvSlice returns the buffer's writable region from the current packet
// offset to the end of the buffer — the iovec a vectorized socket read
// scatters a datagram into. Headroom before the offset stays reserved, so
// a packet received this way can still take the zero-copy encap prepend.
// Pair with SetRecvLen once the external writer reports the byte count.
func (b *Buf) RecvSlice() []byte { return b.data[b.off:] }

// SetRecvLen records that an external writer (a batched socket read)
// filled the first n bytes of RecvSlice, making them the packet contents.
func (b *Buf) SetRecvLen(n int) error {
	if n < 0 || n > len(b.data)-b.off {
		return ErrNoTailroom
	}
	b.len = n
	return nil
}

// Prepend grows the packet by n bytes at the front and returns the new
// leading bytes for the caller to fill in. It never copies. A recorded
// outer parse described the old front, so the claim is dropped.
func (b *Buf) Prepend(n int) ([]byte, error) {
	if n > b.off {
		return nil, ErrNoHeadroom
	}
	b.off -= n
	b.len += n
	b.Meta.OuterParsed = false
	return b.data[b.off : b.off+n], nil
}

// Append grows the packet by n bytes at the back and returns the new
// trailing bytes for the caller to fill in.
func (b *Buf) Append(n int) ([]byte, error) {
	if n > b.Tailroom() {
		return nil, ErrNoTailroom
	}
	p := b.data[b.off+b.len : b.off+b.len+n]
	b.len += n
	return p, nil
}

// TrimFront removes n bytes from the front of the packet (decapsulation).
// The removed bytes become headroom, so a later Prepend can reuse them.
// A recorded outer parse described the pre-trim front, so the claim is
// dropped; the decap that consumes the parse reads the metadata before
// trimming.
func (b *Buf) TrimFront(n int) error {
	if n > b.len {
		return ErrTooShort
	}
	b.off += n
	b.len -= n
	b.Meta.OuterParsed = false
	return nil
}

// TrimBack removes n bytes from the back of the packet.
func (b *Buf) TrimBack(n int) error {
	if n > b.len {
		return ErrTooShort
	}
	b.len -= n
	return nil
}

// Clone copies the packet (contents and metadata) into a new buffer drawn
// from the same pool when pooled, or freshly allocated otherwise. When the
// pooled buffer cannot hold the packet at its offset, an unpooled buffer
// of sufficient size is allocated instead of truncating.
func (b *Buf) Clone() *Buf {
	if b.pool != nil {
		return b.clonePooled(b.pool)
	}
	c := NewBuf(len(b.data), b.off)
	c.off = b.off
	c.len = b.len
	copy(c.data[c.off:c.off+c.len], b.Bytes())
	c.copyMetaFrom(b)
	return c
}

// copyMetaFrom copies b's metadata into c, re-validating the claim that
// is only meaningful relative to the packet bytes: Meta.OuterParsed
// promises the first OuterLen bytes are a demux-validated IPv4+UDP+GTP-U
// envelope of the whole packet. A clone taken after the source mutated
// (or a stage re-armed stale metadata) must not carry that promise into
// a copy it no longer describes — a metadata-trusting decap would
// TrimFront payload bytes off it. The audit re-checks the structural
// invariants visible at this layer: the claimed envelope fits the
// contents, leads with an IPv4 header whose options stay inside the
// claim, and carries UDP. Claims that fail are cleared, sending the
// copy down the decap's full re-parse path instead.
func (c *Buf) copyMetaFrom(b *Buf) {
	c.Meta = b.Meta
	if !c.Meta.OuterParsed {
		return
	}
	n := int(c.Meta.OuterLen)
	p := c.Bytes()
	if n < IPv4HeaderLen+UDPHeaderLen || n > len(p) ||
		p[0]>>4 != 4 || int(p[0]&0x0f)*4+UDPHeaderLen > n || p[9] != ProtoUDP {
		c.Meta.OuterParsed = false
		c.Meta.OuterLen = 0
	}
}

// ClonePooled copies the packet into a buffer drawn from pl — the
// cross-pool clone migration buffering uses. A source larger than pl's
// buffers (e.g. an unpooled jumbo buffer) is cloned into a fresh unpooled
// allocation rather than silently truncated.
func (b *Buf) ClonePooled(pl *Pool) *Buf {
	return b.clonePooled(pl)
}

func (b *Buf) clonePooled(pl *Pool) *Buf {
	c := pl.Get()
	if b.off+b.len > len(c.data) {
		// The pooled buffer cannot hold the packet at its offset: return
		// it and allocate an exact-fit unpooled buffer.
		c.Free()
		c = NewBuf(b.off+b.len, b.off)
	}
	c.off = b.off
	c.len = b.len
	copy(c.data[c.off:c.off+c.len], b.Bytes())
	c.copyMetaFrom(b)
	return c
}

// Free returns the buffer to its pool. Unpooled buffers are left for the
// garbage collector. Using a Buf after Free is a bug.
func (b *Buf) Free() {
	if b.pool != nil {
		b.pool.put(b)
	}
}

// String implements fmt.Stringer for debugging.
func (b *Buf) String() string {
	return fmt.Sprintf("Buf{len=%d headroom=%d tailroom=%d}", b.len, b.Headroom(), b.Tailroom())
}

// PoolFreeListCap bounds the shared free list of a Pool in buffers.
// Frees beyond it fall to the garbage collector, so a pool never retains
// more than PoolFreeListCap × size bytes.
const PoolFreeListCap = 1 << 12

// DefaultCacheSize is the per-worker PoolCache capacity in buffers; the
// refill/spill quantum is half of it.
const DefaultCacheSize = 64

// Pool recycles packet buffers so the data path performs no steady-state
// allocation. It is the shared level of an mbuf-style two-level allocator
// (DPDK mempool shape): a bounded MPSC-ring free list that any thread may
// free into lock-free, with a mutex serializing the (single-consumer)
// dequeue side. Hot paths should front it with a per-worker PoolCache so
// a refill or spill touches the shared list once per batch instead of
// once per packet. Unlike the sync.Pool it replaces, the free list
// survives garbage collections and Get returns a *Buf with no interface
// conversion.
type Pool struct {
	size     int
	headroom int

	// free is the shared free list. Producers (Buf.Free, PutBatch,
	// PoolCache spills) enqueue lock-free from any thread; mu serializes
	// consumers so the MPSC ring's single-consumer contract holds.
	free *ring.MPSC[*Buf]
	mu   sync.Mutex
}

// NewPool returns a pool of buffers with the given capacity and reserved
// headroom. Zero values select the package defaults.
func NewPool(size, headroom int) *Pool {
	if size <= 0 {
		size = DefaultBufSize
	}
	if headroom < 0 {
		headroom = DefaultHeadroom
	}
	return &Pool{
		size:     size,
		headroom: headroom,
		free:     ring.MustMPSC[*Buf](PoolFreeListCap),
	}
}

func (pl *Pool) newBuf() *Buf {
	b := NewBuf(pl.size, pl.headroom)
	b.pool = pl
	return b
}

// Get returns an empty buffer with the pool's headroom reserved.
func (pl *Pool) Get() *Buf {
	pl.mu.Lock()
	b, ok := pl.free.Dequeue()
	pl.mu.Unlock()
	if !ok {
		b = pl.newBuf()
	}
	b.Reset(pl.headroom)
	return b
}

// GetBatch fills dst with empty buffers (headroom reserved), touching the
// shared free list once; misses are satisfied by fresh allocations.
func (pl *Pool) GetBatch(dst []*Buf) {
	pl.mu.Lock()
	n := pl.free.DequeueBatch(dst)
	pl.mu.Unlock()
	for i := n; i < len(dst); i++ {
		dst[i] = pl.newBuf()
	}
	for _, b := range dst {
		b.Reset(pl.headroom)
	}
}

// PutBatch returns bs to the shared free list in one ring operation.
// Buffers beyond the free-list capacity (or foreign/unpooled buffers)
// are left to the garbage collector.
func (pl *Pool) PutBatch(bs []*Buf) {
	n := 0
	for _, b := range bs {
		if b != nil && b.pool == pl {
			bs[n] = b
			n++
		}
	}
	pl.free.EnqueueBatch(bs[:n])
}

// put is the single-buffer free path (Buf.Free): a lock-free MPSC
// enqueue; on overflow the buffer is left to the garbage collector.
func (pl *Pool) put(b *Buf) { pl.free.Enqueue(b) }

// PoolCache is the per-worker level of the two-level allocator: a plain
// LIFO stack of buffers owned by one goroutine, refilled from and spilled
// to the shared Pool half a cache at a time (the DPDK mempool per-lcore
// cache, substituted with a free list since Go gives no per-CPU storage;
// per-worker ownership provides the same no-contention property under the
// run-to-completion model). Get and Put are single-threaded and
// allocation free in the steady state; recently freed buffers are reused
// warm. Not safe for concurrent use.
//
// The zero value is a valid free-side cache: it binds itself to the pool
// of the first buffer Put into it, so a consumer that only releases
// buffers (e.g. a drop path) needs no explicit pool wiring.
type PoolCache struct {
	pool *Pool
	bufs []*Buf
	half int
}

// NewCache returns a cache over pl holding at most size buffers
// (DefaultCacheSize when size <= 0); refills and spills move size/2
// buffers per shared-pool interaction.
func (pl *Pool) NewCache(size int) *PoolCache {
	c := &PoolCache{}
	c.bind(pl, size)
	return c
}

func (c *PoolCache) bind(pl *Pool, size int) {
	if size <= 0 {
		size = DefaultCacheSize
	}
	if size < 2 {
		size = 2
	}
	c.pool = pl
	c.bufs = make([]*Buf, 0, size)
	c.half = size / 2
}

// Pool returns the shared pool the cache is bound to (nil until the
// first Put binds a zero-value cache).
func (c *PoolCache) Pool() *Pool { return c.pool }

// Get returns an empty buffer, from the local stack when possible; an
// empty stack triggers one batched refill from the shared pool. The cache
// must be bound (constructed by NewCache, or seeded by a prior Put).
func (c *PoolCache) Get() *Buf {
	if n := len(c.bufs); n > 0 {
		b := c.bufs[n-1]
		c.bufs[n-1] = nil
		c.bufs = c.bufs[:n-1]
		return b
	}
	c.bufs = c.bufs[:c.half]
	c.pool.GetBatch(c.bufs)
	n := len(c.bufs)
	b := c.bufs[n-1]
	c.bufs[n-1] = nil
	c.bufs = c.bufs[:n-1]
	return b
}

// GetBatch fills dst with empty buffers (headroom reserved), draining the
// local stack first and satisfying the remainder with one shared-pool
// GetBatch — the rx-burst allocation path: one call arms a whole
// vectorized socket read.
func (c *PoolCache) GetBatch(dst []*Buf) {
	n := 0
	for n < len(dst) {
		l := len(c.bufs)
		if l == 0 {
			break
		}
		dst[n] = c.bufs[l-1]
		c.bufs[l-1] = nil
		c.bufs = c.bufs[:l-1]
		n++
	}
	if n < len(dst) {
		c.pool.GetBatch(dst[n:])
	}
}

// PutBatch releases bs into the cache, spilling to the shared pool in
// half-cache batches as the stack fills — the tx-burst free path: one
// call retires a whole transmitted batch. Nil, unpooled and foreign
// buffers are handled as in Put.
func (c *PoolCache) PutBatch(bs []*Buf) {
	for _, b := range bs {
		c.Put(b)
	}
}

// Put releases a buffer into the local stack; a full stack spills half a
// cache to the shared pool in one batch. Unpooled buffers are left to the
// garbage collector and buffers from a different pool take the direct
// shared-list path, so Put is safe for any buffer.
func (c *PoolCache) Put(b *Buf) {
	if b == nil || b.pool == nil {
		return
	}
	if c.pool != b.pool {
		if c.pool != nil {
			b.Free()
			return
		}
		c.bind(b.pool, DefaultCacheSize)
	}
	if len(c.bufs) == cap(c.bufs) {
		spill := c.bufs[c.half:]
		c.pool.PutBatch(spill)
		for i := range spill {
			spill[i] = nil
		}
		c.bufs = c.bufs[:c.half]
	}
	c.bufs = append(c.bufs, b)
}

// Flush spills every cached buffer back to the shared pool. Call when a
// worker exits so its cached buffers are not stranded.
func (c *PoolCache) Flush() {
	if c.pool == nil || len(c.bufs) == 0 {
		return
	}
	c.pool.PutBatch(c.bufs)
	for i := range c.bufs {
		c.bufs[i] = nil
	}
	c.bufs = c.bufs[:0]
}
