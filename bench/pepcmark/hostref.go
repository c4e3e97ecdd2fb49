package main

// Host-speed reference. The hosts this benchmark runs on are shared
// virtual machines. On the one the bounds were fixed on, the speed of
// CPU- and memory-bound code swings with what the other tenants do —
// arithmetic by up to 1 : 0.6, memory latency by ±20 %, for minutes at a
// time — and the in-process workloads follow: ten same-code runs spread
// (IQR ÷ median) by up to 0.23 in rate and 0.32 in p99 as measured, more
// than the widest bound a benchmark may declare (README.md, "The
// host-speed reference"). So while such a workload's timed phase runs, the
// goroutine that runs it also times two fixed kernels every few
// milliseconds: an ALU loop that stays in registers and a dependent
// pointer chase through 64 MiB that misses every cache. The phase's host
// speed is how fast they ran, by their median times, against nominalAluNs
// and nominalMemNs, the middle of the states seen on that host, each
// weighted by the share of its time the workload spends that way; a rate
// is divided by it and a time multiplied, so the metric reads what the
// program would have done with the host in that middle state. The kernels
// never change and never touch the program under test, and the program
// cannot reach them: one stays in registers, the other misses every cache
// whatever else the cache holds.
const (
	nominalAluNs = 5500  // the ALU kernel with the host in its middle state
	nominalMemNs = 59000 // the memory kernel, likewise
	refAluIter   = 4000
	refMemIter   = 200
	refChain     = 1 << 24 // uint32 entries: 64 MiB
	// refEvery is the shortest gap between two samples: the kernels take
	// ~80 µs, so sampling costs the loop about 2 % of its time.
	refEvery = 4_000_000
)

// hostRef is the reference sampler of one timed phase.
type hostRef struct {
	chain    []uint32
	pos      uint32
	acc      uint64
	last     int64
	alu, mem []float64 // kernel times in ns, one entry per sample
}

// newHostRef builds the pointer chase: entry i holds the next index of a
// full-period linear congruential sequence, so following it visits all
// 16M entries in an order no prefetcher predicts.
func newHostRef() *hostRef {
	h := &hostRef{chain: make([]uint32, refChain)}
	for i := range h.chain {
		h.chain[i] = (uint32(i)*1664525 + 1013904223) & (refChain - 1)
	}
	return h
}

// sibling returns a sampler for another goroutine of the same phase; the
// read-only chain is shared.
func (h *hostRef) sibling() *hostRef { return &hostRef{chain: h.chain} }

// merge adds another goroutine's samples of the same phase.
func (h *hostRef) merge(o *hostRef) {
	h.alu = append(h.alu, o.alu...)
	h.mem = append(h.mem, o.mem...)
}

// sample runs both kernels if refEvery has passed since the last sample.
// A nil sampler does nothing: the loops that are not scaled run without.
func (h *hostRef) sample(now int64) {
	if h == nil || now-h.last < refEvery {
		return
	}
	h.last = now
	t0 := nowNs()
	r := rng{s: h.acc}
	var acc uint64
	for i := 0; i < refAluIter; i++ {
		acc += r.next()
	}
	h.acc = acc
	t1 := nowNs()
	p := h.pos
	for i := 0; i < refMemIter; i++ {
		p = h.chain[p]
	}
	h.pos = p
	h.alu = append(h.alu, float64(t1-t0))
	h.mem = append(h.mem, float64(nowNs()-t1))
}

// speed is the phase's host speed for a workload that, on the nominal
// host, spends aluShare of its time on arithmetic and the rest waiting for
// memory: its time grows as aluShare × (ALU kernel ÷ nominal) +
// (1 − aluShare) × (memory kernel ÷ nominal), and the speed is the inverse
// of that. 1 when nothing was sampled.
func (h *hostRef) speed(aluShare float64) float64 {
	if h == nil || len(h.alu) == 0 {
		return 1
	}
	return 1 / (aluShare*median(h.alu)/nominalAluNs + (1-aluShare)*median(h.mem)/nominalMemNs)
}
