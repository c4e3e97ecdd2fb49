// Package core implements PEPC itself: the slice (paper §3.2, Listing 1)
// — a control thread and a data thread sharing consolidated per-user
// state under the single-writer lock split — and the node (§3.3) with its
// Demux, Scheduler (including per-user state migration, §4.3) and Proxy
// to the HSS and PCRF backends.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"pepc/internal/fault"
	"pepc/internal/gtp"
	"pepc/internal/hdr"
	"pepc/internal/pcef"
	"pepc/internal/pkt"
	"pepc/internal/qos"
	"pepc/internal/ring"
	"pepc/internal/state"
)

// SliceConfig parameterizes a PEPC slice.
type SliceConfig struct {
	// ID distinguishes slices within a node (0..MaxSliceID) and is the
	// prefix of the identifiers it allocates (HomeTEID, HomeUEAddr).
	ID int
	// UserHint pre-sizes tables for the expected population.
	UserHint int
	// SyncEvery is the data thread's update-sync interval in packets
	// (§7.2; the paper uses 32). 1 disables batching.
	SyncEvery int
	// RingCapacity sizes the slice's packet rings (power of two).
	RingCapacity int
	// IoTTEIDBase/IoTTEIDCount reserve a TEID pool for Stateless IoT
	// devices (§4.2): traffic in this range bypasses per-user state.
	IoTTEIDBase  uint32
	IoTTEIDCount uint32
	// RecordLatency enables per-packet latency recording into the data
	// plane's histogram (packets must carry Meta.TSNanos).
	RecordLatency bool
	// CoreAddr is the slice's data-plane IP used as the outer source for
	// downlink GTP-U encapsulation.
	CoreAddr uint32
}

func (c SliceConfig) withDefaults() SliceConfig {
	if c.UserHint <= 0 {
		c.UserHint = 1 << 16
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = state.DefaultSyncEvery
	}
	if c.RingCapacity <= 0 {
		c.RingCapacity = 1 << 12
	}
	if c.CoreAddr == 0 {
		c.CoreAddr = pkt.IPv4Addr(172, 16, byte(c.ID>>8), byte(c.ID))
	}
	return c
}

// Slice is one PEPC slice: consolidated state for a set of users plus the
// control and data planes that operate on it (Listing 1).
type Slice struct {
	cfg SliceConfig

	// cp is the control-plane store (Listing 1's cp_state): every user
	// of the slice indexed by IMSI/TEID/IP, PEPC lock discipline.
	cp *state.Table

	// updates carries index changes from control to data (batched sync,
	// §7.2).
	updates *state.UpdateQueue

	// Data-plane state (Listing 1's dp_state), data-thread-owned.
	ix *state.Indexes

	// pcefTable is the slice's match-action table (shared, internally
	// synchronized; installs are control-side, classification data-side).
	pcefTable *pcef.Table

	// Packet rings: uplink carries GTP-U encapsulated traffic from
	// eNodeBs, downlink plain IP toward users, egress everything the
	// slice forwards. Uplink and Downlink are multi-producer (demux
	// thread, migration drain, paging resume) with the data thread as
	// sole consumer; Egress is written only by the data thread.
	Uplink   *ring.MPSC[*pkt.Buf]
	Downlink *ring.MPSC[*pkt.Buf]
	Egress   *ring.SPSC[*pkt.Buf]

	ctrl *ControlPlane
	data *DataPlane

	// faults is the slice's fault injector (nil when none armed); see
	// SetFaults for what it reaches.
	faults *fault.Injector

	// waker reaches a data thread that blocks when idle (nil while the
	// data thread polls or the caller drives both planes); see Waker.
	waker atomic.Pointer[Waker]
}

// NewSlice builds a slice. The returned slice is passive: drive the data
// plane with Process*Batch or RunPass (inline mode) or RunData (a parked
// data thread), and the control plane through its methods.
func NewSlice(cfg SliceConfig) *Slice {
	cfg = cfg.withDefaults()
	s := &Slice{
		cfg:       cfg,
		cp:        state.NewTable(state.LockModePEPC, cfg.UserHint),
		updates:   state.NewUpdateQueue(1 << 14),
		pcefTable: pcef.NewTable(),
		Uplink:    ring.MustMPSC[*pkt.Buf](cfg.RingCapacity),
		Downlink:  ring.MustMPSC[*pkt.Buf](cfg.RingCapacity),
		Egress:    ring.MustSPSC[*pkt.Buf](cfg.RingCapacity),
		ix:        state.NewIndexes(cfg.UserHint),
	}
	s.ctrl = newControlPlane(s)
	s.data = newDataPlane(s)
	return s
}

// Config returns the slice configuration.
func (s *Slice) Config() SliceConfig { return s.cfg }

// Control returns the slice's control plane.
func (s *Slice) Control() *ControlPlane { return s.ctrl }

// Data returns the slice's data plane.
func (s *Slice) Data() *DataPlane { return s.data }

// PCEF returns the slice's match-action table.
func (s *Slice) PCEF() *pcef.Table { return s.pcefTable }

// Users returns the number of users owned by the slice.
func (s *Slice) Users() int { return s.cp.Len() }

// DataPlane is the slice's data thread: the GTP-U decap → state lookup →
// PCEF → QoS → counters → encap pipeline of §4.2, run to completion per
// batch.
type DataPlane struct {
	s *Slice

	// Stats (data-thread written; atomic so other threads may read).
	// Forwarded counts what the egress ring accepted; a packet it
	// refuses is counted in Dropped only.
	Forwarded atomic.Uint64
	Dropped   atomic.Uint64
	Missed    atomic.Uint64 // no user state found
	IoTFast   atomic.Uint64 // packets taking the stateless-IoT path
	IoTBytes  atomic.Uint64 // aggregate charging for the stateless pool
	// PagedPackets counts downlink packets parked for idle users.
	PagedPackets atomic.Uint64
	// EchoReplies counts GTP-U echo requests answered on the fast path.
	EchoReplies atomic.Uint64

	// paging parks downlink packets for idle users (data thread
	// produces, control thread drains on resume).
	paging *ring.MPSC[*pkt.Buf]

	// syncSeq counts completed SyncUpdates calls; the migration fence
	// uses it to know when the data thread can no longer touch an
	// extracted user's counters.
	syncSeq atomic.Uint64
	// running reports whether a data thread is bound (BindData); when
	// none is, the migration fence is unnecessary (the caller drives both
	// planes) and is skipped.
	running atomic.Bool

	// Per-direction latency histograms, indexed like latPend
	// (data-thread written; any thread may merge them live with
	// MergeLatency — hdr records are atomic). Recording is gated by
	// cfg.RecordLatency and a packet carrying Meta.TSNanos; the clock is
	// read once per batch by the caller, not per packet.
	lat [2]hdr.Histogram

	// latPend accumulates the current same-valued latency run per
	// direction (0 = downlink, 1 = uplink): packets of one batch share
	// one ingress stamp and one processing clock read, so their
	// latencies are identical and the whole run settles in one atomic
	// RecordN at the batch boundary instead of one atomic add per
	// packet — the difference between ~4% and well under 1% of the
	// per-packet budget. Data-thread private (unsynchronized by design);
	// flushed at the end of every Process*Batch, so a quiesced readout
	// sees exact counts.
	latPend [2]struct {
		v int64
		n uint64
	}

	// cache is the data thread's level of the two-level buffer pool:
	// drops and tail-drops release into it so a batch of frees costs one
	// shared-pool interaction. It lazily binds to the ingress pool of the
	// first freed buffer; ReleaseData flushes it.
	cache pkt.PoolCache

	sinceSync int

	// scratch holds the staged pipeline's preallocated per-stage arrays.
	// Batch processing is single-threaded: both directions share the
	// scratch and must be driven from one goroutine (the data thread), as
	// RunPass and the paper's run-to-completion model already require.
	scratch dpScratch
}

// dpScratch is the per-DataPlane working set of the stage-oriented batch
// pipeline. Arrays grow to the largest batch seen and are then reused,
// keeping the steady-state fast path allocation free.
type dpScratch struct {
	live    []bool         // packet survived the parse stage
	keys    []uint32       // lookup key (uplink TEID / downlink UE address)
	flows   []pkt.Flow     // parsed inner 5-tuple
	plens   []int          // inner byte length for accounting
	runOf   []int32        // packet index → key-run index
	allowed []bool         // per-packet policing verdict, then forward mask
	runKeys []uint32       // distinct consecutive keys of the batch
	runHot  []*state.HotUE // resolved hot state, one per key run
	out     []*pkt.Buf     // the chunk's forwarded packets, in order
	rules   pcef.RuleSet

	// fast receives the seqlock snapshot of the current run's fast-path
	// control view (see state.HotUE.ReadFast): the verdict stage works
	// on this stable 32-byte copy instead of holding a per-user lock or
	// copying the whole control state, so a concurrent control write
	// never stalls the run and the copy stays within a cache line.
	fast state.FastCtrl

	// cold receives the full control snapshot on the rare rebuild path
	// (policed users whose control epoch advanced).
	cold state.ControlState
}

func (sc *dpScratch) ensure(n int) {
	if cap(sc.live) >= n {
		return
	}
	sc.live = make([]bool, n)
	sc.keys = make([]uint32, n)
	sc.flows = make([]pkt.Flow, n)
	sc.plens = make([]int, n)
	sc.runOf = make([]int32, n)
	sc.allowed = make([]bool, n)
	sc.runKeys = make([]uint32, n)
	sc.runHot = make([]*state.HotUE, n)
	sc.out = make([]*pkt.Buf, 0, n)
}

func newDataPlane(s *Slice) *DataPlane {
	dp := &DataPlane{s: s}
	dp.initPaging()
	return dp
}

// MergeLatency merges both directions' latency histograms (recorded
// when RecordLatency is set) into into. Safe while the data thread is
// recording: hdr records are atomic and the merge takes no lock.
func (dp *DataPlane) MergeLatency(into *hdr.Histogram) {
	for i := range dp.lat {
		into.Merge(&dp.lat[i])
	}
}

// SyncUpdates drains the control→data update queue into the data-plane
// indexes. Called automatically every SyncEvery packets and by every
// RunPass; exposed for inline drivers and tests.
func (dp *DataPlane) SyncUpdates() int {
	n := dp.s.updates.Drain(dp.s.ix)
	dp.syncSeq.Add(1)
	return n
}

// ProcessUplinkBatch runs the uplink pipeline (see process) over a batch
// of GTP-U packets from eNodeBs, keyed by TEID. Inline mode for
// benchmarks; RunPass wraps it for data threads.
func (dp *DataPlane) ProcessUplinkBatch(batch []*pkt.Buf, now int64) { dp.process(batch, now, true) }

// ProcessDownlinkBatch runs the downlink pipeline (see process) over a
// batch of IP packets toward users, keyed by UE address.
func (dp *DataPlane) ProcessDownlinkBatch(batch []*pkt.Buf, now int64) { dp.process(batch, now, false) }

// process runs one direction's pipeline over a batch stage by stage
// rather than packet by packet: (1) a parse stage extracts the lookup
// key and inner 5-tuple of every packet (uplink also decapsulates GTP-U
// and serves the echo and stateless-IoT fast paths); (2) a lookup stage
// groups the batch into key runs — maximal stretches of consecutive
// packets for the same user, as eNodeBs and traffic generators emit
// them — and resolves each run with one table probe through the state
// layer's batched lookups; (3) a verdict stage classifies, polices and
// counts each run with one PCEF match, one control-state read, one
// aggregate token-bucket operation and one counter write per run instead
// of per packet (downlink also encapsulates toward the user's eNodeB, or
// parks the run for paging). The batch is segmented at SyncEvery
// boundaries so control-update sync keeps its exact per-packet
// granularity (§7.2, Figure 13). Single data thread only (see
// dpScratch).
func (dp *DataPlane) process(batch []*pkt.Buf, now int64, uplink bool) {
	for len(batch) > 0 {
		n := dp.s.cfg.SyncEvery - dp.sinceSync
		if n > len(batch) {
			n = len(batch)
		}
		dp.chunk(batch[:n], now, uplink)
		dp.sinceSync += n
		if dp.sinceSync >= dp.s.cfg.SyncEvery {
			dp.SyncUpdates()
			dp.sinceSync = 0
		}
		batch = batch[n:]
	}
	if dp.s.cfg.RecordLatency {
		dp.flushLat()
	}
}

// chunk processes one sync-interval's worth of packets through the three
// stages. No update sync happens inside a chunk, so every lookup
// observes the same index state the packet-at-a-time loop would have.
// What the stages forward leaves in one egress enqueue at the end.
func (dp *DataPlane) chunk(batch []*pkt.Buf, now int64, uplink bool) {
	sc := &dp.scratch
	n := len(batch)
	sc.ensure(n)
	sc.rules = dp.s.pcefTable.Snapshot()
	sc.out = sc.out[:0]

	// Stage 1: parse and key extraction.
	if uplink {
		dp.parseUplink(batch, now)
	} else {
		dp.parseDownlink(batch)
	}

	// Stage 2: one state lookup per key run.
	dp.lookupRuns(batch, uplink)

	// Stage 3: verdict/forward, one run at a time. A run extends while
	// the key run and the 5-tuple both repeat, so classification, bearer
	// selection and policing are provably identical for every packet in
	// it.
	for i := 0; i < n; {
		if !sc.live[i] {
			i++
			continue
		}
		hot := sc.runHot[sc.runOf[i]]
		if hot == nil {
			dp.Missed.Add(1)
			dp.drop(batch[i])
			i++
			continue
		}
		j := i + 1
		for j < n && sc.live[j] && sc.runOf[j] == sc.runOf[i] && sc.flows[j] == sc.flows[i] {
			j++
		}
		dp.run(batch, i, j, hot, now, uplink)
		i = j
	}
	dp.flushEgress()
}

// parseUplink is the uplink parse stage: decap, the echo and
// stateless-IoT fast paths, inner parse and TEID key for every packet.
func (dp *DataPlane) parseUplink(batch []*pkt.Buf, now int64) {
	sc := &dp.scratch
	for i, b := range batch {
		sc.live[i] = false
		teid, err := gtp.DecapGPDU(b)
		if err != nil {
			if err == gtp.ErrNotGPDU && dp.answerEcho(b, now) {
				continue
			}
			dp.drop(b)
			continue
		}
		b.Meta.TEID = teid
		b.Meta.Uplink = true

		// Stateless IoT fast path (§4.2): TEIDs from the reserved pool
		// skip the per-user state lookup, per-user locks and QoS state;
		// the slice-level policy and charging rules still apply.
		if dp.isIoT(teid) {
			dp.IoTFast.Add(1)
			flow, plen, ok := parseInner(b)
			if !ok {
				dp.drop(b)
				continue
			}
			if sc.rules.ClassifyFlow(flow).Action == pcef.ActionDrop {
				dp.drop(b)
				continue
			}
			dp.IoTBytes.Add(uint64(plen))
			dp.forward(b, now)
			continue
		}

		flow, plen, ok := parseInner(b)
		if !ok {
			dp.drop(b)
			continue
		}
		b.Meta.Flow = flow
		sc.live[i] = true
		sc.keys[i] = teid
		sc.flows[i] = flow
		sc.plens[i] = plen
	}
}

// parseDownlink is the downlink parse stage: inner parse and UE-address
// key for every packet. The demux's steering parse is reused when
// present (Meta.FlowParsed), so no inner header byte is decoded twice
// between ingress and verdict.
func (dp *DataPlane) parseDownlink(batch []*pkt.Buf) {
	sc := &dp.scratch
	for i, b := range batch {
		sc.live[i] = false
		var flow pkt.Flow
		var plen int
		if b.Meta.FlowParsed {
			flow, plen = b.Meta.Flow, b.Len()
			b.Meta.FlowParsed = false
		} else {
			var ok bool
			flow, plen, ok = parseInner(b)
			if !ok {
				dp.drop(b)
				continue
			}
			b.Meta.Flow = flow
		}
		b.Meta.UEIP = flow.Dst
		b.Meta.Uplink = false
		sc.live[i] = true
		sc.keys[i] = flow.Dst
		sc.flows[i] = flow
		sc.plens[i] = plen
	}
}

// lookupRuns groups the chunk's live packets into runs of consecutive
// equal keys and resolves each distinct run with a single probe via the
// state layer's batched lookup (uplink: TEID index, downlink: IP index).
func (dp *DataPlane) lookupRuns(batch []*pkt.Buf, uplink bool) {
	sc := &dp.scratch
	nruns := 0
	var prevKey uint32
	for i := range batch {
		if !sc.live[i] {
			continue
		}
		if nruns == 0 || sc.keys[i] != prevKey {
			sc.runKeys[nruns] = sc.keys[i]
			prevKey = sc.keys[i]
			nruns++
		}
		sc.runOf[i] = int32(nruns - 1)
	}
	if nruns == 0 {
		return
	}
	dp.s.ix.GetHotBatch(sc.runKeys[:nruns], uplink, sc.runHot[:nruns])
}

// run applies classification, policing, charging and forwarding to
// batch[lo:hi], a run of packets from one user sharing one 5-tuple. The
// run costs one PCEF match, one seqlock fast-view snapshot (32 bytes,
// not the whole control state), one aggregate token-bucket call and one
// WriteCounters; when the aggregate bucket check cannot admit the whole
// run it consumes nothing and the run falls back to per-packet policing
// against the same snapshot, reproducing the packet-at-a-time semantics
// exactly. Downlink adds the tunnel-endpoint read (paging when the user
// is idle) and per-packet GTP-U encapsulation before the counter write.
func (dp *DataPlane) run(batch []*pkt.Buf, lo, hi int, hot *state.HotUE, now int64, uplink bool) {
	sc := &dp.scratch
	flow := sc.flows[lo]
	count := uint64(hi - lo)
	verdict := sc.rules.ClassifyFlow(flow)
	if verdict.Action == pcef.ActionDrop {
		hot.WriteCounters(func(c *state.CounterState) { c.DroppedPackets += count })
		for k := lo; k < hi; k++ {
			dp.drop(batch[k])
		}
		return
	}

	var total uint64
	for k := lo; k < hi; k++ {
		total += uint64(sc.plens[k])
	}
	ruleSlot := -1
	f := &sc.fast
	hot.ReadFast(f)
	if f.Epoch != hot.Priv.Epoch {
		dp.rebuildPriv(hot, f)
	}
	for i := 0; i < int(f.RuleCount); i++ {
		if f.RuleIDs[i] == verdict.RuleID {
			ruleSlot = i
			break
		}
	}
	if !uplink && f.DownlinkTEID == 0 {
		// Idle user (S1 released): park the whole run for paging rather
		// than drop. It is policed when ResumeAccess brings it back
		// through here, once.
		for k := lo; k < hi; k++ {
			dp.parkForPaging(batch[k], hot.U)
		}
		return
	}
	// partial: the aggregate check failed and sc.allowed holds each
	// packet's own verdict.
	allowedAll, partial := true, false
	if lim := &hot.Priv.Limiter; lim.Configured() {
		bearer := hot.Priv.SelectBearer(flow)
		if count == 1 {
			allowedAll = lim.Allow(now, uplink, bearer, total)
		} else if !lim.AllowRun(now, uplink, bearer, total) {
			allowedAll, partial = false, true
			for k := lo; k < hi; k++ {
				sc.allowed[k] = lim.Allow(now, uplink, bearer, uint64(sc.plens[k]))
			}
		}
	}
	if !partial && !allowedAll { // single-packet run, denied
		dp.countDrop(hot)
		dp.drop(batch[lo])
		return
	}
	if uplink && !partial {
		// Nothing to do per packet: the whole run leaves as it is. The
		// per-packet pass below would cost ~60 ns per uplink packet at
		// 250K users (EXPERIMENTS.md "One stage for both directions").
		hot.WriteCounters(func(c *state.CounterState) {
			c.UplinkPackets += count
			c.UplinkBytes += total
			if ruleSlot >= 0 {
				c.RuleBytes[ruleSlot] += total
			}
		})
		for k := lo; k < hi; k++ {
			dp.forward(batch[k], now)
		}
		return
	}

	// Per packet: drop what policing denied and, downlink, encap the
	// rest; then settle the run's counters in one write and forward.
	// sc.allowed becomes the forward mask. The envelope is the template
	// cached in hot state (rebuilt above if the epoch moved, so it matches
	// this run's snapshot); field-by-field gtp.EncapGPDU is only the
	// fallback for a template that is not valid for this run.
	useTmpl := false
	if !uplink {
		useTmpl = hot.Priv.Encap.Valid() && hot.Priv.Encap.TEID() == f.DownlinkTEID
	}
	var nFwd, bytesFwd, nDrop uint64
	for k := lo; k < hi; k++ {
		ok := !partial || sc.allowed[k]
		if ok && !uplink {
			var err error
			if useTmpl {
				err = hot.Priv.Encap.Apply(batch[k])
			} else {
				err = gtp.EncapGPDU(batch[k], f.DownlinkTEID, dp.s.cfg.CoreAddr, f.ENBAddr)
			}
			ok = err == nil
		}
		sc.allowed[k] = ok
		if !ok {
			nDrop++
			dp.drop(batch[k])
			continue
		}
		nFwd++
		bytesFwd += uint64(sc.plens[k])
	}
	hot.WriteCounters(func(c *state.CounterState) {
		if uplink {
			c.UplinkPackets += nFwd
			c.UplinkBytes += bytesFwd
		} else {
			c.DownlinkPackets += nFwd
			c.DownlinkBytes += bytesFwd
		}
		if ruleSlot >= 0 {
			c.RuleBytes[ruleSlot] += bytesFwd
		}
		if nDrop != 0 { // DroppedPackets is off the touched lines
			c.DroppedPackets += nDrop
		}
	})
	for k := lo; k < hi; k++ {
		if sc.allowed[k] {
			dp.forward(batch[k], now)
		}
	}
}

func (dp *DataPlane) isIoT(teid uint32) bool {
	base, n := dp.s.cfg.IoTTEIDBase, dp.s.cfg.IoTTEIDCount
	return n > 0 && teid >= base && teid < base+n
}

// forward queues b for the chunk's egress burst (see flushEgress).
func (dp *DataPlane) forward(b *pkt.Buf, now int64) {
	if dp.s.cfg.RecordLatency && b.Meta.TSNanos != 0 {
		dp.recordLat(b.Meta.Uplink, now-b.Meta.TSNanos)
	}
	dp.scratch.out = append(dp.scratch.out, b)
}

// flushEgress hands the chunk's forwarded packets to the egress ring in
// one burst and counts what it accepted as forwarded. What does not fit
// is egress backpressure: dropped and released, like a NIC tail drop.
func (dp *DataPlane) flushEgress() {
	out := dp.scratch.out
	if len(out) == 0 {
		return
	}
	n := dp.s.Egress.EnqueueBatch(out)
	dp.Forwarded.Add(uint64(n))
	for _, b := range out[n:] {
		dp.drop(b)
	}
}

// recordLat extends or flushes the direction's pending same-valued run.
// The common case — another packet of the batch with the same stamp —
// is a compare and a non-atomic increment.
func (dp *DataPlane) recordLat(uplink bool, v int64) {
	idx := 0
	if uplink {
		idx = 1
	}
	p := &dp.latPend[idx]
	if p.n > 0 && p.v == v {
		p.n++
		return
	}
	if p.n > 0 {
		dp.lat[idx].RecordN(p.v, p.n)
	}
	p.v, p.n = v, 1
}

// flushLat settles both directions' pending latency runs into the
// histograms; called at every Process*Batch boundary (and is a no-op
// when recording is off or nothing is pending).
func (dp *DataPlane) flushLat() {
	for idx := range dp.latPend {
		if p := &dp.latPend[idx]; p.n > 0 {
			dp.lat[idx].RecordN(p.v, p.n)
			p.n = 0
		}
	}
}

func (dp *DataPlane) drop(b *pkt.Buf) {
	dp.Dropped.Add(1)
	dp.cache.Put(b)
}

func (dp *DataPlane) countDrop(hot *state.HotUE) {
	hot.WriteCounters(func(c *state.CounterState) { c.DroppedPackets++ })
}

// rebuildPriv refreshes data-thread-private derived state after the hot
// view's epoch moved. Unpoliced users (the common case, precomputed into
// FastCtrl) settle without ever touching the cold half; policed users
// take one wait-free cold snapshot to reconfigure the limiter and
// refresh the cached bearer TFTs. Both branches rebuild the downlink
// encap template from the same FastCtrl snapshot the caller is acting
// on, so the cached envelope always matches the tunnel of the current
// run.
func (dp *DataPlane) rebuildPriv(hot *state.HotUE, f *state.FastCtrl) {
	if !f.Policed {
		hot.Priv.Encap.Init(f.DownlinkTEID, dp.s.cfg.CoreAddr, f.ENBAddr)
		hot.Priv.Limiter = qos.UserLimiter{}
		hot.Priv.NTFT = 0
		hot.Priv.Epoch = f.Epoch
		return
	}
	// Policed: everything derived — template included — comes from one
	// cold snapshot so the recorded epoch matches what was cached (the
	// snapshot may be newer than f; run re-checks the template's
	// TEID against its own view).
	c := &dp.scratch.cold
	hot.U.ReadCtrlSnapshot(c)
	hot.Priv.Encap.Init(c.DownlinkTEID, dp.s.cfg.CoreAddr, c.ENBAddr)
	hot.Priv.Limiter.ConfigureUser(c.AMBRUplink, c.AMBRDownlink)
	for i := 0; i < int(c.BearerCount); i++ {
		hot.Priv.Limiter.ConfigureBearer(i, c.Bearers[i].MBRUplink, c.Bearers[i].MBRDownlink)
		hot.Priv.TFTs[i] = c.Bearers[i].TFT
	}
	hot.Priv.NTFT = c.BearerCount
	hot.Priv.Epoch = c.Epoch
}

// parseInner extracts the 5-tuple from the (decapsulated) inner IPv4
// packet; plen is the inner packet length used for byte accounting.
func parseInner(b *pkt.Buf) (pkt.Flow, int, bool) {
	data := b.Bytes()
	var ip pkt.IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		return pkt.Flow{}, 0, false
	}
	f := pkt.Flow{Src: ip.Src, Dst: ip.Dst, Proto: ip.Protocol}
	off := ip.HeaderLen()
	if (ip.Protocol == pkt.ProtoTCP || ip.Protocol == pkt.ProtoUDP) && len(data) >= off+4 {
		f.SrcPort = uint16(data[off])<<8 | uint16(data[off+1])
		f.DstPort = uint16(data[off+2])<<8 | uint16(data[off+3])
	}
	return f, b.Len(), true
}

// Errors.
var (
	ErrUserExists    = errors.New("core: user already attached")
	ErrUserUnknown   = errors.New("core: user not found")
	ErrPoolExhausted = errors.New("core: identifier pool exhausted")
	ErrBadAssignment = errors.New("core: assigned TEID and UE address must both be set")
)

// String implements fmt.Stringer.
func (s *Slice) String() string {
	return fmt.Sprintf("Slice{id=%d users=%d}", s.cfg.ID, s.Users())
}

// answerEcho handles a GTP-U Echo Request on the fast path: the response
// swaps the outer addressing and flips the message type, as S-GWs answer
// eNodeB path-management probes. Returns false when the packet is not an
// echo request (caller drops it).
func (dp *DataPlane) answerEcho(b *pkt.Buf, now int64) bool {
	data := b.Bytes()
	var ip pkt.IPv4
	if ip.DecodeFromBytes(data) != nil || ip.Protocol != pkt.ProtoUDP {
		return false
	}
	off := ip.HeaderLen() + pkt.UDPHeaderLen
	if len(data) < off+gtp.HeaderLen || data[off+1] != gtp.MsgEchoRequest {
		return false
	}
	// Swap outer src/dst words in place and rewrite the type. The ones-
	// complement sum is commutative, so exchanging two address words
	// leaves the IPv4 checksum valid — no recompute. Optional GTP fields
	// (a 29.281 echo request carries a sequence number) ride along
	// untouched, which is exactly the echo-response contract: same
	// sequence number back.
	var src [4]byte
	copy(src[:], data[12:16])
	copy(data[12:16], data[16:20])
	copy(data[16:20], src[:])
	data[off+1] = gtp.MsgEchoResponse
	dp.EchoReplies.Add(1)
	dp.forward(b, now)
	return true
}
