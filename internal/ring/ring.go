// Package ring provides lock-free rings used as the I/O substrate between
// PEPC pipeline stages, standing in for DPDK rings/vports. Both move
// bursts for a fixed number of atomics and never allocate. The SPSC ring
// (single producer, single consumer) carries each slice's egress. The
// MPSC ring (many producers, one consumer) carries the data path too:
// each slice's uplink and downlink ingress, fed by every demux queue,
// and the packet pool's free list, which every lane frees into; and the
// control-plane queues (updates, signaling, paging).
package ring

import (
	"errors"
	"sync/atomic"
)

// ErrBadCapacity is returned when a requested capacity is not a power of
// two greater than one.
var ErrBadCapacity = errors.New("ring: capacity must be a power of two >= 2")

// SPSC is a bounded single-producer single-consumer queue of T. Exactly
// one goroutine may call the producer methods (Enqueue, EnqueueBatch) and
// exactly one may call the consumer methods (Dequeue, DequeueBatch, Len);
// the two may differ. Head and tail live on separate cache lines to avoid
// false sharing between the producer and consumer cores.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_    [64]byte // padding: keep head and tail on separate cache lines
	head atomic.Uint64
	_    [64]byte
	tail atomic.Uint64
	_    [64]byte

	// Producer-local and consumer-local cached copies of the opposite
	// index reduce cross-core traffic: the producer only re-reads head
	// when the ring appears full, the consumer only re-reads tail when it
	// appears empty.
	cachedHead uint64
	_          [64]byte
	cachedTail uint64
}

// NewSPSC returns an SPSC ring holding up to capacity items. Capacity must
// be a power of two.
func NewSPSC[T any](capacity int) (*SPSC[T], error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, ErrBadCapacity
	}
	return &SPSC[T]{buf: make([]T, capacity), mask: uint64(capacity - 1)}, nil
}

// MustSPSC is NewSPSC that panics on bad capacity; for package-internal
// construction with constant capacities.
func MustSPSC[T any](capacity int) *SPSC[T] {
	r, err := NewSPSC[T](capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Cap returns the ring capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the number of queued items. Exact only from the consumer
// side; advisory elsewhere.
func (r *SPSC[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Enqueue adds one item, reporting false if the ring is full.
func (r *SPSC[T]) Enqueue(v T) bool {
	tail := r.tail.Load()
	if tail-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if tail-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	return true
}

// EnqueueBatch adds as many items from vs as fit, returning the count.
func (r *SPSC[T]) EnqueueBatch(vs []T) int {
	tail := r.tail.Load()
	free := uint64(len(r.buf)) - (tail - r.cachedHead)
	if free < uint64(len(vs)) {
		r.cachedHead = r.head.Load()
		free = uint64(len(r.buf)) - (tail - r.cachedHead)
	}
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(tail+i)&r.mask] = vs[i]
	}
	r.tail.Store(tail + n)
	return int(n)
}

// Dequeue removes one item, reporting false if the ring is empty.
func (r *SPSC[T]) Dequeue() (T, bool) {
	var zero T
	head := r.head.Load()
	if head == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if head == r.cachedTail {
			return zero, false
		}
	}
	v := r.buf[head&r.mask]
	r.buf[head&r.mask] = zero // release references for GC
	r.head.Store(head + 1)
	return v, true
}

// DequeueBatch fills vs with up to len(vs) items, returning the count.
func (r *SPSC[T]) DequeueBatch(vs []T) int {
	var zero T
	head := r.head.Load()
	avail := r.cachedTail - head
	if avail < uint64(len(vs)) {
		r.cachedTail = r.tail.Load()
		avail = r.cachedTail - head
	}
	n := uint64(len(vs))
	if n > avail {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & r.mask
		vs[i] = r.buf[idx]
		r.buf[idx] = zero
	}
	r.head.Store(head + n)
	return int(n)
}

// MPSC is a bounded multi-producer single-consumer queue of T, shaped
// like DPDK's rte_ring. It carries packets (each slice's ingress, the
// pool's free list) as well as control queues. A burst costs a fixed
// number of atomics: producers reserve a range of positions with one CAS
// on tail, checking free space against the consumer's head, and commit
// each slot by storing its sequence number; the consumer takes every
// committed slot in order and releases the whole burst with one store to
// head.
type MPSC[T any] struct {
	buf  []slot[T]
	mask uint64

	// FaultHook, when non-nil, is consulted before each item enqueued;
	// returning true makes the enqueue report a full ring at that item,
	// driving the producers' backpressure paths (signaling sheds, tail
	// drops) under fault injection. Install it before concurrent use;
	// nil costs one predictable branch.
	FaultHook func() bool

	_    [64]byte
	head atomic.Uint64 // consumer position: every earlier slot is free
	_    [64]byte
	tail atomic.Uint64 // next unreserved producer position
}

// slot holds one item; seq is pos+1 once the producer that reserved
// position pos has written v. The consumer never resets it: a value left
// from an earlier lap (pos-k*Cap+1) or the zero of a new ring can never
// equal pos+1.
type slot[T any] struct {
	seq atomic.Uint64
	v   T
}

// NewMPSC returns an MPSC ring holding up to capacity items. Capacity must
// be a power of two.
func NewMPSC[T any](capacity int) (*MPSC[T], error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, ErrBadCapacity
	}
	return &MPSC[T]{buf: make([]slot[T], capacity), mask: uint64(capacity - 1)}, nil
}

// MustMPSC is NewMPSC that panics on bad capacity.
func MustMPSC[T any](capacity int) *MPSC[T] {
	q, err := NewMPSC[T](capacity)
	if err != nil {
		panic(err)
	}
	return q
}

// Cap returns the ring capacity.
func (q *MPSC[T]) Cap() int { return len(q.buf) }

// Len returns the approximate number of queued items (reserved positions
// count as queued).
func (q *MPSC[T]) Len() int {
	n := int(q.tail.Load()) - int(q.head.Load())
	if n < 0 {
		return 0
	}
	return n
}

// reserve claims up to n consecutive positions with one CAS on tail,
// returning the first and how many it got (0 when the ring is full).
// Head is read after tail: if it has moved past the tail read, so has
// tail, and the CAS fails; otherwise every claimed position's slot was
// released by the consumer before the head read.
func (q *MPSC[T]) reserve(n uint64) (uint64, uint64) {
	for {
		tail := q.tail.Load()
		if free := uint64(len(q.buf)) + q.head.Load() - tail; n > free {
			n = free
		}
		if n == 0 || q.tail.CompareAndSwap(tail, tail+n) {
			return tail, n
		}
	}
}

// Enqueue adds one item, reporting false if the ring is full. Safe for
// concurrent producers.
func (q *MPSC[T]) Enqueue(v T) bool {
	if q.FaultHook != nil && q.FaultHook() {
		return false // injected overflow
	}
	pos, n := q.reserve(1)
	if n == 0 {
		return false
	}
	s := &q.buf[pos&q.mask]
	s.v = v
	s.seq.Store(pos + 1)
	return true
}

// EnqueueBatch adds as many items from vs as fit, in order, returning
// the count. Safe for concurrent producers: the whole range is reserved
// with one CAS, so another producer's items never interleave with it.
func (q *MPSC[T]) EnqueueBatch(vs []T) int {
	if q.FaultHook != nil {
		for i := range vs {
			if q.FaultHook() {
				vs = vs[:i] // injected overflow at item i
				break
			}
		}
	}
	pos, n := q.reserve(uint64(len(vs)))
	for i, v := range vs[:n] {
		s := &q.buf[(pos+uint64(i))&q.mask]
		s.v = v
		s.seq.Store(pos + uint64(i) + 1)
	}
	return int(n)
}

// Dequeue removes one item. Only one consumer goroutine may call it.
func (q *MPSC[T]) Dequeue() (T, bool) {
	var zero T
	head := q.head.Load()
	s := &q.buf[head&q.mask]
	if s.seq.Load() != head+1 {
		return zero, false // empty or producer not yet committed
	}
	v := s.v
	s.v = zero
	q.head.Store(head + 1)
	return v, true
}

// DequeueBatch fills vs with up to len(vs) items, returning the count:
// the committed slots from head on, stopping at the first slot its
// producer has not yet written, released with one store to head. Only
// one consumer goroutine may call it.
func (q *MPSC[T]) DequeueBatch(vs []T) int {
	var zero T
	head := q.head.Load()
	n := 0
	for ; n < len(vs); n++ {
		pos := head + uint64(n)
		s := &q.buf[pos&q.mask]
		if s.seq.Load() != pos+1 {
			break
		}
		vs[n] = s.v
		s.v = zero
	}
	if n > 0 {
		q.head.Store(head + uint64(n))
	}
	return n
}
