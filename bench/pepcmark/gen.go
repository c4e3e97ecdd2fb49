package main

import (
	"hash/fnv"

	"pepc/internal/core"
	"pepc/internal/pkt"
)

// Seeded input streams. Everything a workload feeds the program is drawn
// from one of these, so -seed fixes the inputs: which user each packet
// belongs to, its direction and size, the signaling schedule, and the
// identifier ranges the N4 workers use. The program under test receives
// the generated packets and messages only — never the seed or the
// workload's name.

// Stream ids keep the generators of one seed independent.
const (
	streamUsers = iota + 1
	streamSizes
	streamSignal
	streamN4
)

// pktDraw is one generated packet's description.
type pktDraw struct {
	user   int  // index into the workload's user list
	uplink bool // G-PDU toward the core, else plain IP toward the user
	size   int  // inner IPv4 packet length in bytes
}

// pktChooser draws the packet stream: uplink and downlink at 1:3 (paper
// Table 2), the user uniform over the targetable population, and train
// consecutive packets per draw of (user, direction) — 1 for the fully
// interleaved in-memory workloads, 8 for the wire workload's per-UE
// trains that run-coalescing feeds on.
type pktChooser struct {
	users, sizes *rng
	targets      int
	train        int
	imix         bool
	upSize       int
	dnSize       int

	cur  pktDraw
	left int
	pos  int // position in the 1:3 direction cycle, in trains
}

func newPktChooser(seed uint64, targets, train int, imix bool) *pktChooser {
	return &pktChooser{users: newRNG(seed, streamUsers), sizes: newRNG(seed, streamSizes),
		targets: targets, train: train, imix: imix, upSize: 128, dnSize: 64}
}

// restart makes the next draw the first of an uplink train, as at the
// start of the stream.
func (c *pktChooser) restart() { c.pos, c.left = 0, 0 }

// imixSizes is the 7:4:1 simple-IMIX draw over inner packet sizes.
var imixSizes = [12]int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1400}

func (c *pktChooser) next() pktDraw {
	if c.left == 0 {
		c.cur.user = c.users.intn(c.targets)
		c.cur.uplink = c.pos&3 == 0
		c.pos++
		c.left = c.train
	}
	c.left--
	d := c.cur
	switch {
	case c.imix:
		d.size = imixSizes[c.sizes.intn(len(imixSizes))]
	case d.uplink:
		d.size = c.upSize
	default:
		d.size = c.dnSize
	}
	return d
}

// Signaling event mix of inmem-mixed: attach-event, S1 handover and QoS
// update at 6:1:1 plus 2 parts detach, each detach followed by a
// re-attach of the same IMSI so the population holds.
const (
	sigPartsAttach   = 6
	sigPartsHandover = 1
	sigPartsQoS      = 1
	sigPartsDetach   = 2
	sigParts         = sigPartsAttach + sigPartsHandover + sigPartsQoS + sigPartsDetach
)

// sigDraw is one scheduled signaling event: its kind and the index of
// the user it applies to. Detaches draw from the churn subset the packet
// stream never targets; everything else from the targeted users.
type sigDraw struct {
	kind core.SigKind
	user int
}

type sigSchedule struct {
	r       *rng
	targets int // users [0, targets) carry traffic
	churn   int // users [targets, targets+churn) are detached and re-attached
}

func newSigSchedule(seed uint64, targets, churn int) *sigSchedule {
	return &sigSchedule{r: newRNG(seed, streamSignal), targets: targets, churn: churn}
}

func (s *sigSchedule) next() sigDraw {
	switch k := s.r.intn(sigParts); {
	case k < sigPartsAttach:
		return sigDraw{core.SigAttachEvent, s.r.intn(s.targets)}
	case k < sigPartsAttach+sigPartsHandover:
		return sigDraw{core.SigS1Handover, s.r.intn(s.targets)}
	case k < sigPartsAttach+sigPartsHandover+sigPartsQoS:
		return sigDraw{core.SigQoSUpdate, s.r.intn(s.targets)}
	default:
		return sigDraw{core.SigDetach, s.targets + s.r.intn(s.churn)}
	}
}

// n4Range is one PFCP worker's identifier space: session i of worker w
// uses F-TEID base|i and UE address ueBase+i. The seed picks the second
// octet of both, so two seeds never share identifiers and two workers of
// one seed never collide.
type n4Range struct {
	teidBase uint32
	ueBase   uint32
}

func n4Ranges(seed uint64, workers int) []n4Range {
	r := newRNG(seed, streamN4)
	salt := uint32(r.intn(64)) // 6 bits, leaving 2 bits of the octet for the worker
	out := make([]n4Range, workers)
	for w := range out {
		oct := salt<<2 | uint32(w)&3
		out[w] = n4Range{teidBase: 0x5E00_0000 | oct<<16, ueBase: pkt.IPv4Addr(45, byte(oct), 0, 0)}
	}
	return out
}

// inputDigest hashes the head of every input stream a workload draws at
// the given seed and scale. Same seed, same digest; it is what the
// determinism test and the result's fingerprint compare.
func inputDigest(workload string, seed uint64, sc scale) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	const head = 4096
	switch workload {
	case "inmem-forward", "inmem-mixed":
		c := newPktChooser(seed, sc.Users-sc.Churn, 1, false)
		for i := 0; i < head; i++ {
			d := c.next()
			put(uint64(d.user), uint64(b2i(d.uplink)), uint64(d.size))
		}
		if workload == "inmem-mixed" {
			s := newSigSchedule(seed, sc.Users-sc.Churn, sc.Churn)
			for i := 0; i < head; i++ {
				d := s.next()
				put(uint64(d.kind), uint64(d.user))
			}
		}
	case "wire-forward":
		c := newPktChooser(seed, sc.WireUEs, wireTrain, true)
		for i := 0; i < head; i++ {
			d := c.next()
			put(uint64(d.user), uint64(b2i(d.uplink)), uint64(d.size))
		}
	case "n4-churn":
		for _, r := range n4Ranges(seed, n4Workers) {
			put(uint64(r.teidBase), uint64(r.ueBase))
		}
	}
	return h.Sum64()
}
