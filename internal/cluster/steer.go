package cluster

import (
	"pepc/internal/core"
	"pepc/internal/pkt"
	"pepc/internal/sim"
)

// Steerer is the cluster's batched steering hot path: one rx burst is
// classified exactly once (the parse is recorded in packet metadata and
// trusted downstream), hashed through the Maglev table in one PickBatch
// call, and handed to per-node WireSteers in maximal runs of packets
// bound for the same node — the same compact/resolve/run-coalesce shape
// as core.WireSteer, lifted one level. Zero allocations at steady
// membership; a membership change (epoch bump) re-derives the per-node
// steerer array once.
//
// Single goroutine per Steerer, like WireSteer: one receive loop owns one
// Steerer. Several Steerers may feed one cluster concurrently — node
// demux locks and MPSC slice rings absorb the fan-in.
type Steerer struct {
	c     *Cluster
	cache *pkt.PoolCache
	batch int

	// view pinned at the current epoch: ws[i] steers into the node at
	// balancer backend index i.
	epoch uint64
	ws    []*core.WireSteer

	live  []*pkt.Buf
	keys  []uint64
	picks []int32
	stamp bool

	// Drops counts packets freed here: unparsable, or no backend.
	Drops uint64
}

// NewSteerer returns a steering context for bursts of up to batch
// packets (scratch grows if larger bursts arrive). cache, when non-nil,
// recycles dropped packets into the caller's pool cache.
func (c *Cluster) NewSteerer(batch int, cache *pkt.PoolCache) *Steerer {
	if batch <= 0 {
		batch = 32
	}
	st := &Steerer{c: c, cache: cache, batch: batch}
	st.ensure(batch)
	return st
}

// StampIngress enables cluster-ingress timestamping: every classified
// packet of a Steer burst gets Meta.TSNanos from one clock read per
// burst, arming the owning slice's verdict-stage latency recording
// (Config.RecordLatency). Read the merged result via Cluster.Latency.
func (st *Steerer) StampIngress(on bool) { st.stamp = on }

func (st *Steerer) ensure(n int) {
	if cap(st.live) >= n {
		return
	}
	st.live = make([]*pkt.Buf, 0, n)
	st.keys = make([]uint64, n)
	st.picks = make([]int32, n)
}

// refresh re-derives the per-node WireSteer array for the current
// membership. Callers hold c.mu.RLock.
func (st *Steerer) refresh(epoch uint64) {
	st.ws = st.ws[:0]
	for _, m := range st.c.members {
		st.ws = append(st.ws, m.node.NewWireSteer(st.batch, st.cache))
	}
	st.epoch = epoch
}

func (st *Steerer) free(b *pkt.Buf) {
	st.Drops++
	if st.cache != nil {
		st.cache.Put(b)
		return
	}
	b.Free()
}

// Steer classifies and routes one rx burst across the cluster, taking
// ownership of every buffer.
func (st *Steerer) Steer(bufs []*pkt.Buf) {
	c := st.c
	st.ensure(len(bufs))

	// Stage 1: classify once and compact. The validated parse lands in
	// each packet's metadata, so the per-node WireSteer below trusts it
	// instead of re-walking headers.
	live := st.live[:0]
	for _, b := range bufs {
		key, _, ok := core.ClassifyWire(b)
		if !ok {
			st.free(b)
			continue
		}
		st.keys[len(live)] = SteerKey(key)
		live = append(live, b)
	}
	if len(live) == 0 {
		return
	}
	if st.stamp {
		// One clock read stamps the whole classified burst; the owning
		// node's verdict stage records now−stamp, so the measured span
		// covers cluster steer + demux + ring residency + processing.
		now := sim.Now()
		for _, b := range live {
			b.Meta.TSNanos = now
		}
	}

	// Stage 2: one Maglev batch lookup under the membership read lock;
	// the pick→node view cannot flip mid-burst.
	c.mu.RLock()
	if ep := c.epoch.Load(); ep != st.epoch || st.ws == nil {
		st.refresh(ep)
	}
	err := c.bal.PickBatch(st.keys[:len(live)], st.picks[:len(live)])
	if err != nil {
		c.mu.RUnlock()
		for _, b := range live {
			st.free(b)
		}
		st.reset(live)
		return
	}

	// Stage 3: hand maximal runs of same-node packets to that node's
	// WireSteer — eNodeB bursts are per-user runs, and a user maps to
	// one node, so runs are long in practice.
	i := 0
	for i < len(live) {
		p := st.picks[i]
		j := i + 1
		for j < len(live) && st.picks[j] == p {
			j++
		}
		if p < 0 || int(p) >= len(st.ws) {
			for k := i; k < j; k++ {
				st.free(live[k])
			}
		} else {
			st.ws[p].Steer(live[i:j])
		}
		i = j
	}
	c.mu.RUnlock()
	st.reset(live)
}

func (st *Steerer) reset(live []*pkt.Buf) {
	for i := range live {
		live[i] = nil
	}
	st.live = live[:0]
}
