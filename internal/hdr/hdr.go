// Package hdr provides the fast path's latency substrate: an HDR-style
// log-bucketed histogram whose record path is one constant-time bucket
// computation plus one uncontended atomic add — cheap enough to run
// inside the per-packet verdict stages — with lock-free merge at
// readout so per-worker unsynchronized instances aggregate into
// per-slice and per-node p50/p99/p999 surfaces without stalling a
// recorder.
//
// Design (the HdrHistogram trade-off without the dependency):
//
//   - Buckets: 64 major octaves × 16 linear sub-buckets cover 1ns to
//     ~580 years of nanoseconds with ≤1/16 (6.25%) relative error.
//     Values 0–15 land in exact unit buckets. The bucket index is a
//     pure function of the value via bits.Len64 — no loops, no
//     branches on magnitude (the old sim.Histogram walked up to 64
//     shift iterations per record; that cost lands exactly on the path
//     being measured).
//   - Record: a single atomic.AddUint64 on the value's bucket. No
//     per-record sum/min/max bookkeeping — count, mean, min, max and
//     quantiles are all derived from the buckets at readout, so the
//     recorder pays for nothing the readout can reconstruct. RecordN
//     admits a whole same-valued run with one add (one clock read per
//     run, not per packet).
//   - Concurrency: instances are meant to be single-writer (one per
//     worker), but every access is atomic, so a reader may Merge or
//     query a live recorder at any time — the race detector stays
//     quiet and readout never blocks recording. A quantile read over a
//     moving histogram is a consistent-enough snapshot: each bucket is
//     read once, so the result corresponds to some interleaving of the
//     concurrent records.
//
// Contracts:
//
//   - Count is exact: every Record(N) is visible in Count after the
//     recording goroutine's add completes (it is the sum of the bucket
//     counts, each maintained atomically).
//   - Quantile error is bounded: Percentile(p) returns the upper edge
//     of the bucket holding the rank-⌈n·p/100⌉ sample, so for a true
//     sample value v it returns r with v ≤ r ≤ v·(1+1/16)+1. Reporting
//     the upper edge makes the figure-gating direction conservative:
//     a ratcheted p99 ceiling can only be optimistic about the bucket
//     width, never about the samples.
package hdr

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// subBits is log2 of the linear sub-buckets per octave; 4 gives the
	// 1/16 relative-error bound.
	subBits = 4
	subN    = 1 << subBits

	// NumBuckets is the bucket array length. Major octaves above
	// subBits each contribute subN buckets starting at index
	// (major-subBits+1)*subN; the largest major (63) ends at
	// 60*16+15 = 975.
	NumBuckets = 61 * subN
)

// Histogram is a fixed-size log-bucketed latency histogram. The zero
// value is ready to use. Size is ~7.6KB; embed one per worker and per
// direction rather than sharing across threads (sharing is safe but
// turns the uncontended add into a contended one).
type Histogram struct {
	counts [NumBuckets]uint64 // accessed atomically
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// BucketOf returns the bucket index for a nanosecond value: exact unit
// buckets below 16, then (octave, 4-bit mantissa). Constant time.
func BucketOf(v uint64) int {
	if v < subN {
		return int(v)
	}
	major := uint(bits.Len64(v)) - 1 // position of the highest set bit
	minor := (v >> (major - subBits)) & (subN - 1)
	return int(major-subBits+1)*subN + int(minor)
}

// BucketLow returns the smallest value mapping to bucket i (the
// inverse of BucketOf).
func BucketLow(i int) uint64 {
	if i < subN {
		return uint64(i)
	}
	major := uint(i/subN + subBits - 1)
	minor := uint64(i % subN)
	return 1<<major | minor<<(major-subBits)
}

// BucketHigh returns the largest value mapping to bucket i.
func BucketHigh(i int) uint64 {
	if i < subN {
		return uint64(i)
	}
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return BucketLow(i+1) - 1
}

// Record adds one duration in nanoseconds. Negative durations (a
// stamped clock read racing a coarser one) clamp to zero rather than
// wrapping into the top octave.
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	atomic.AddUint64(&h.counts[BucketOf(uint64(ns))], 1)
}

// RecordN adds count samples of the same duration with one atomic add —
// the per-run entry point: a verdict run whose packets share one
// timestamp settles its whole latency contribution in one operation.
func (h *Histogram) RecordN(ns int64, count uint64) {
	if count == 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	atomic.AddUint64(&h.counts[BucketOf(uint64(ns))], count)
}

// Count returns the number of recorded samples (exact; see package
// contract).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += atomic.LoadUint64(&h.counts[i])
	}
	return n
}

// Empty reports whether no samples have been recorded.
func (h *Histogram) Empty() bool {
	for i := range h.counts {
		if atomic.LoadUint64(&h.counts[i]) != 0 {
			return false
		}
	}
	return true
}

// Min returns the lower edge of the lowest occupied bucket (0 when
// empty) — a lower bound on the smallest recorded value.
func (h *Histogram) Min() uint64 {
	for i := range h.counts {
		if atomic.LoadUint64(&h.counts[i]) != 0 {
			return BucketLow(i)
		}
	}
	return 0
}

// Max returns the upper edge of the highest occupied bucket (0 when
// empty) — an upper bound on the largest recorded value, within the
// 1/16 relative-error contract.
func (h *Histogram) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if atomic.LoadUint64(&h.counts[i]) != 0 {
			return BucketHigh(i)
		}
	}
	return 0
}

// Percentile returns the value at or below which p percent (0–100) of
// samples fall, as the upper edge of the rank-holding bucket. Zero
// when empty.
func (h *Histogram) Percentile(p float64) uint64 {
	var n uint64
	for i := range h.counts {
		n += atomic.LoadUint64(&h.counts[i])
	}
	if n == 0 {
		return 0
	}
	target := uint64(math.Ceil(float64(n) * p / 100))
	if target == 0 {
		target = 1
	}
	if target > n {
		target = n
	}
	var cum uint64
	last := 0
	for i := range h.counts {
		c := atomic.LoadUint64(&h.counts[i])
		if c == 0 {
			continue
		}
		last = i
		cum += c
		if cum >= target {
			return BucketHigh(i)
		}
	}
	return BucketHigh(last)
}

// Merge adds other's samples into h. Lock-free on both sides: other
// may still be recording (each of its buckets is read once), and
// several mergers may fold into one readout histogram concurrently.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range other.counts {
		if c := atomic.LoadUint64(&other.counts[i]); c != 0 {
			atomic.AddUint64(&h.counts[i], c)
		}
	}
}

// Reset clears the histogram. Not atomic as a whole: quiesce recorders
// (end of a run) before resetting.
func (h *Histogram) Reset() {
	for i := range h.counts {
		atomic.StoreUint64(&h.counts[i], 0)
	}
}

// Summary renders n/p50/p90/p99/p99.9/max in microseconds.
func (h *Histogram) Summary() string {
	us := func(v uint64) float64 { return float64(v) / 1e3 }
	return fmt.Sprintf("n=%d p50=%.1fµs p90=%.1fµs p99=%.1fµs p99.9=%.1fµs max=%.1fµs",
		h.Count(), us(h.Percentile(50)), us(h.Percentile(90)), us(h.Percentile(99)),
		us(h.Percentile(99.9)), us(h.Max()))
}
