package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported value. N is the number of samples behind it and
// IQR the spread of the per-window values it is the median of; both are
// printed beside the value and left out of the contract's result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	IQR   float64 `json:"iqr,omitempty"`
}

// epoch anchors the benchmark's monotonic nanosecond clock.
var epoch = time.Now()

// nowNs returns monotonic nanoseconds since process start: one vDSO clock
// read, the only clock every stamp in this package uses.
func nowNs() int64 { return int64(time.Since(epoch)) }

// rng is a splitmix64 generator: every input stream of a run (user
// choice, packet size, signaling kind, identifier ranges) draws from one
// of these, seeded from -seed and a per-stream constant, so a seed fixes
// the inputs and nothing else does.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// series is one goroutine's record of a timed phase, cut into fixed
// windows: operations completed per window and every latency sample in
// arrival order. Samples are kept raw (not bucketed) so percentiles carry
// all their digits; the backing arrays are sized before the phase starts,
// several times over what the workloads reach, so appends do not allocate
// inside it.
type series struct {
	t0, width int64
	next      int64    // start of the window after the current one
	ops       []int64  // operations per window
	bounds    []int    // index into samples where each window starts
	samples   []uint32 // latency in ns, clipped at ~4.29 s
	// host, when set, samples the host-speed reference on the goroutine
	// that fills the series (hostref.go).
	host *hostRef
}

// newSeries starts a series at t0.
func newSeries(t0 int64, width, total time.Duration, sampleCap int) *series {
	n := int(total/width) + 2
	return &series{t0: t0, width: int64(width), next: t0 + int64(width),
		ops: make([]int64, 1, n), bounds: make([]int, 1, n), samples: make([]uint32, 0, sampleCap)}
}

// roll opens windows until now falls inside the current one.
func (s *series) roll(now int64) {
	for now >= s.next {
		s.ops = append(s.ops, 0)
		s.bounds = append(s.bounds, len(s.samples))
		s.next += s.width
	}
}

// add records ops operations that completed at now with one latency
// sample (a burst's packets share their stamps, so one sample stands for
// all of them).
func (s *series) add(now, latNs, ops int64) {
	if now >= s.next {
		s.roll(now)
	}
	s.ops[len(s.ops)-1] += ops
	s.sample(latNs)
}

// count records ops operations completed at now with no latency sample.
func (s *series) count(now, ops int64) {
	if now >= s.next {
		s.roll(now)
	}
	s.ops[len(s.ops)-1] += ops
}

func (s *series) sample(latNs int64) {
	if latNs < 0 {
		latNs = 0
	}
	if latNs > math.MaxUint32 {
		latNs = math.MaxUint32
	}
	s.samples = append(s.samples, uint32(latNs))
}

// windowStats is one or more series sharing t0 and width (one per
// goroutine of a phase) reduced to per-window values over the windows
// every series completed in full: each window's rate in ops/s, and — for
// the windows that hold at least minSamples latency samples, so that
// their p99 has samples beyond it — the p50 and p99 in ns. A thin window
// is what a stall of the generator's own goroutine leaves (the shared
// host takes a virtual CPU away for up to half a second now and then);
// it keeps its rate and is counted.
type windowStats struct {
	rate     []float64 // per window
	p50, p99 []float64 // per window that is not thin
	samples  int       // latency samples in the windows that are not thin
	thin     int
}

// add appends the windows of another phase of the same kind.
func (ws *windowStats) add(o windowStats) {
	ws.rate = append(ws.rate, o.rate...)
	ws.p50 = append(ws.p50, o.p50...)
	ws.p99 = append(ws.p99, o.p99...)
	ws.samples += o.samples
	ws.thin += o.thin
}

func reduce(minSamples int, ss ...*series) windowStats {
	full := math.MaxInt
	for _, s := range ss {
		if n := len(s.ops) - 1; n < full { // the last window is partial
			full = n
		}
	}
	var ws windowStats
	var scratch []uint32
	for w := 0; w < full; w++ {
		var ops int64
		scratch = scratch[:0]
		for _, s := range ss {
			ops += s.ops[w]
			scratch = append(scratch, s.samples[s.bounds[w]:s.bounds[w+1]]...)
		}
		ws.rate = append(ws.rate, float64(ops)/(float64(ss[0].width)/1e9))
		if len(scratch) < max(minSamples, 1) {
			ws.thin++
			continue
		}
		ws.samples += len(scratch)
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		ws.p50 = append(ws.p50, float64(rank(scratch, 50)))
		ws.p99 = append(ws.p99, float64(rank(scratch, 99)))
	}
	if len(ws.p99) > 0 || full < 1 {
		return ws
	}
	// Every window is thin (the host gave the run a fraction of a CPU):
	// the percentiles of the whole phase's samples stand in, if there are
	// enough of them for a p99 at all.
	scratch = scratch[:0]
	for _, s := range ss {
		scratch = append(scratch, s.samples[:s.bounds[full]]...)
	}
	if len(scratch) >= 100 {
		ws.samples = len(scratch)
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		ws.p50 = append(ws.p50, float64(rank(scratch, 50)))
		ws.p99 = append(ws.p99, float64(rank(scratch, 99)))
	}
	return ws
}

// rank returns the nearest-rank percentile of sorted samples.
func rank(sorted []uint32, p float64) uint32 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of vs (0 when empty) without reordering it.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if n := len(c); n%2 == 0 {
		return (c[n/2-1] + c[n/2]) / 2
	}
	return c[len(c)/2]
}

// iqr returns the distance between the first and third quartiles of vs
// by the method Python's statistics.quantiles(vs, n=4) uses (exclusive),
// the definition the acceptance check applies to run-to-run spread.
func iqr(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return c[j-1] + d*(c[j]-c[j-1])
	}
	return q(3) - q(1)
}

// overWindows is the metric form every windowed figure takes: the median
// over the windows, with the sample count and the windows' IQR beside it.
func overWindows(vs []float64, scale float64, unit string, n int) metric {
	return metric{Value: median(vs) * scale, Unit: unit, N: n, IQR: iqr(vs) * scale}
}
