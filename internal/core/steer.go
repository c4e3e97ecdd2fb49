package core

import (
	"pepc/internal/gtp"
	"pepc/internal/pkt"
)

// WireSteer is the batched demux entry point for the real-socket data
// plane: it takes a burst of raw wire datagrams (as the vectorized rx
// path lands them), classifies each exactly once — a GTP-U outer parse
// whose validated result is recorded in the packet metadata, or the
// downlink inner-flow parse — resolves every packet's owning slice from
// its key (the demux's home table, or its exception; no lock), and
// enqueues runs of consecutive packets for the same (slice, direction)
// with one ring operation per run.
//
// Packets caught mid-migration fall back to the per-packet steer slow
// path (which handles the buffering handshake); everything else stays on
// the batch path. Single goroutine (one lane per WireSteer); the demux
// is safe to read from concurrent WireSteers over one node.
//
// Rx-queue ↔ worker affinity contract: in the multi-queue wire data
// plane (sockio.Group, pepcd -rxqueues) each rx queue owns exactly one
// WireSteer and one PoolCache, and the group's flow-steering program
// pins every flow (GTP TEID, or IPv4 dst for plain downlink) to one
// queue. A WireSteer may therefore assume it never sees two queues'
// interleavings of one flow — per-flow packet order within a steer batch
// is arrival order — and its scratch and cache stay core-local. The
// slice rings absorb the cross-queue fan-in: Uplink/Downlink are MPSC,
// so several lanes may enqueue into one slice concurrently (waking its
// own lane if that is parked), while each slice's Egress ring stays SPSC
// and is drained by the lane that owns it (slice i → queue i mod Q).
type WireSteer struct {
	n *Node
	// cache, when non-nil, is the free path for dropped packets —
	// typically the lane receiver's PoolCache, so drops recycle into the same
	// per-worker level refills come from.
	cache *pkt.PoolCache

	live  []*pkt.Buf
	keys  []demuxKey
	slice []int32
}

// Slice indices with special meaning in the demux's lookups.
const (
	steerUnknown   int32 = -1
	steerMigrating int32 = -2
)

// ClassifyWire classifies one raw wire datagram for steering: a GTP-U
// envelope yields its TEID (uplink), anything else parsing as IPv4
// yields the destination UE address (downlink); ok is false for
// unparsable packets. The validated parse is recorded in the packet
// metadata, and metadata already recorded by an upstream classifier
// (e.g. the cluster steerer, which classifies once before fanning a
// burst out to per-node WireSteers) is trusted without re-walking the
// headers. Zero-alloc.
func ClassifyWire(b *pkt.Buf) (key uint32, uplink, ok bool) {
	if b.Meta.OuterParsed {
		return b.Meta.TEID, true, true
	}
	if b.Meta.FlowParsed {
		return b.Meta.Flow.Dst, false, true
	}
	if teid, hdrLen, err := gtp.ParseOuter(b.Bytes()); err == nil {
		b.Meta.TEID = teid
		b.Meta.OuterLen = uint16(hdrLen)
		b.Meta.OuterParsed = true
		return teid, true, true
	}
	if flow, _, ok := parseInner(b); ok {
		b.Meta.Flow = flow
		b.Meta.FlowParsed = true
		return flow.Dst, false, true
	}
	return 0, false, false
}

// NewWireSteer returns a steerer for bursts of up to batch packets
// (scratch grows if larger bursts arrive). cache may be nil.
func (n *Node) NewWireSteer(batch int, cache *pkt.PoolCache) *WireSteer {
	if batch <= 0 {
		batch = 32
	}
	ws := &WireSteer{n: n, cache: cache}
	ws.ensure(batch)
	return ws
}

func (ws *WireSteer) ensure(n int) {
	if cap(ws.live) >= n {
		return
	}
	ws.live = make([]*pkt.Buf, 0, n)
	ws.keys = make([]demuxKey, n)
	ws.slice = make([]int32, n)
}

func (ws *WireSteer) free(b *pkt.Buf) {
	if ws.cache != nil {
		ws.cache.Put(b)
		return
	}
	b.Free()
}

// Steer classifies and routes one rx burst. It takes ownership of every
// buffer: each is enqueued to a slice ring, diverted to a migration
// buffer, or freed (unparsable, unknown user, ring full).
func (ws *WireSteer) Steer(bufs []*pkt.Buf) {
	d := ws.n.demux
	ws.ensure(len(bufs))

	// Stage 1: parse once, compact and resolve each owner by the demux's
	// per-packet rule. GTP-U envelopes steer by TEID with the validated
	// outer parse recorded for the slice's decap; everything else is
	// downlink plain IP steering by destination UE address. Non-G-PDU GTP
	// messages and unparsable packets drop here, as the per-packet path
	// did. A packet already classified upstream (the cluster steerer
	// parses once for the whole fleet) is trusted via its metadata rather
	// than re-walked.
	live := ws.live[:0]
	var unknown uint64
	for _, b := range bufs {
		key, up, ok := ClassifyWire(b)
		if !ok {
			unknown++
			ws.free(b)
			continue
		}
		k := keyOf(key, up)
		ws.keys[len(live)] = k
		ws.slice[len(live)] = d.lookup(k)
		live = append(live, b)
	}

	// Stage 2: enqueue maximal runs of consecutive packets bound for the
	// same slice and direction with one ring operation per run — wire
	// bursts from one eNodeB are exactly such runs.
	var steered uint64
	i := 0
	for i < len(live) {
		switch ws.slice[i] {
		case steerUnknown:
			unknown++
			ws.free(live[i])
			i++
			continue
		case steerMigrating:
			// Slow path: re-resolves and buffers under the demux lock.
			ws.n.steer(ws.keys[i], live[i])
			i++
			continue
		}
		up := ws.keys[i].uplink()
		j := i + 1
		for j < len(live) && ws.slice[j] == ws.slice[i] && ws.keys[j].uplink() == up {
			j++
		}
		s := ws.n.slices[ws.slice[i]]
		var acc int
		if up {
			acc = s.Uplink.EnqueueBatch(live[i:j])
		} else {
			acc = s.Downlink.EnqueueBatch(live[i:j])
		}
		s.wakeData()
		steered += uint64(acc)
		for k := i + acc; k < j; k++ {
			ws.free(live[k]) // ring full: tail drop
		}
		i = j
	}
	if steered > 0 {
		d.Steered.Add(steered)
	}
	if unknown > 0 {
		d.Unknown.Add(unknown)
	}
	for i := range live {
		live[i] = nil
	}
	ws.live = live[:0]
}
