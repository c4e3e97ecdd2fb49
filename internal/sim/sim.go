// Package sim provides the measurement substrate the experiment harness
// uses: a monotonic nanosecond clock, a token-bucket event pacer for
// offered-load control, and a throughput meter. (Latency histograms
// live in internal/hdr, shared with the fast path.)
package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

var epoch = time.Now()

// Now returns monotonic nanoseconds since process start. All latency
// measurement and token buckets use this scale.
func Now() int64 { return int64(time.Since(epoch)) }

// Pacer releases events at a fixed rate against the sim clock: Take(n)
// reports how many of n requested events may fire now. Single-threaded.
type Pacer struct {
	ratePerSec float64
	credit     float64
	burst      float64
	last       int64
}

// NewPacer returns a pacer for rate events/second with the given burst.
func NewPacer(ratePerSec float64, burst int) *Pacer {
	if burst <= 0 {
		burst = 1
	}
	return &Pacer{ratePerSec: ratePerSec, burst: float64(burst), credit: float64(burst), last: Now()}
}

// Take requests up to n event credits at time now, returning the granted
// count.
func (p *Pacer) Take(now int64, n int) int {
	if p.ratePerSec <= 0 {
		return n // unpaced
	}
	dt := float64(now-p.last) / 1e9
	if dt > 0 {
		p.credit += dt * p.ratePerSec
		if p.credit > p.burst {
			p.credit = p.burst
		}
		p.last = now
	}
	grant := int(p.credit)
	if grant > n {
		grant = n
	}
	if grant > 0 {
		p.credit -= float64(grant)
	}
	return grant
}

// Meter accumulates event counts over a measured interval and reports
// rates.
type Meter struct {
	start int64
	count uint64
}

// NewMeter starts a meter at the current time.
func NewMeter() *Meter { return &Meter{start: Now()} }

// Add records n events.
func (m *Meter) Add(n uint64) { m.count += n }

// Rate returns events/second since start.
func (m *Meter) Rate() float64 {
	dt := float64(Now()-m.start) / 1e9
	if dt <= 0 {
		return 0
	}
	return float64(m.count) / dt
}

// Count returns total events.
func (m *Meter) Count() uint64 { return m.count }

// Elapsed returns seconds since start.
func (m *Meter) Elapsed() float64 { return float64(Now()-m.start) / 1e9 }

// Series is a labelled result column for figure output: a sequence of
// (x, y) points with a name, rendered as aligned text by Table.
// Derived marks a series whose values were computed rather than
// observed (share-nothing lanes measured one at a time and summed); the
// harness labels such series wherever it prints them.
type Series struct {
	Name    string
	Points  []Point
	Derived bool
}

// Point is one measurement.
type Point struct {
	X float64
	Y float64
}

// Table renders series against a shared X axis as an aligned text table,
// the pepcbench output format.
func Table(xLabel, yLabel string, series ...Series) string {
	// Collect the union of X values in order.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	fmt.Fprintf(&b, "   (%s)\n", yLabel)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14s", FormatQty(x))
		for _, s := range series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, " %18.3f", y)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookup(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// FormatPoints renders a point list as "x=y x=y ..." for notes that
// carry a secondary series (e.g. a Gbps view of an Mpps sweep).
func FormatPoints(pts []Point) string {
	var b strings.Builder
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3f", FormatQty(p.X), p.Y)
	}
	return b.String()
}

// FormatQty renders 1500000 as "1.5M" etc. for axis labels.
func FormatQty(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3gB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gK", v/1e3)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
