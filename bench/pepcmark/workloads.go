package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// medianSetup runs setup, timing it, again and again until sc.SetupTime
// has passed, and returns the last product with the median time: a single
// set-up, above all one of a few milliseconds, does not repeat within a
// tenth. Every product but the last is released with drop (nil when the
// garbage collector suffices).
func medianSetup[T any](e env, setup func() (T, error), drop func(T)) (T, metric, error) {
	var last T
	var times []float64
	for begin := time.Now(); len(times) == 0 || time.Since(begin) < e.sc.SetupTime; {
		if len(times) > 0 && drop != nil {
			drop(last)
		}
		var zero T
		last = zero
		runtime.GC() // the previous product's garbage is not this set-up's cost
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, metric{}, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, metric{Value: median(times), Unit: "s", N: len(times), IQR: iqr(times)}, nil
}

// gcStats is the Go runtime's part of a timed phase.
type gcStats struct {
	mallocs  uint64
	cycles   uint32
	pauseP99 float64 // µs, over the phase's cycles (0 when none ran)
}

type gcMark struct{ ms runtime.MemStats }

func markGC() *gcMark {
	g := &gcMark{}
	runtime.ReadMemStats(&g.ms)
	return g
}

// since reports allocations, GC cycles and the p99 GC pause since the
// mark. MemStats keeps the last 256 pauses; a phase that ran more cycles
// than that reports the p99 of the most recent 256.
func (g *gcMark) since() gcStats {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	st := gcStats{mallocs: now.Mallocs - g.ms.Mallocs, cycles: now.NumGC - g.ms.NumGC}
	n := int(st.cycles)
	if n > len(now.PauseNs) {
		n = len(now.PauseNs)
	}
	pauses := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		pauses = append(pauses, uint32(now.PauseNs[(int(now.NumGC)-1-i+256)%256]))
	}
	if len(pauses) > 0 {
		sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
		st.pauseP99 = float64(rank(pauses, 99)) / 1e3
	}
	return st
}

// scaling says which of a workload's end-to-end metrics are scaled to
// the nominal host by the timed phase's host speed (hostref.go). A figure
// that is CPU and memory time follows the host's speed and is scaled; one
// set by kernel timers, scheduler ticks and process start does not, and
// scaling it would only add the reference's own noise. README.md ("The
// host-speed reference") has the same-code spreads behind each choice.
//
// aluShare is the workload's share of arithmetic in its time, the weight
// of the ALU kernel in the host speed. The two kernels do not move
// together — from one run to the next the ALU kernel takes 5 or 8 µs while
// the memory kernel drifts by a fifth — and a forwarding loop over 250K
// users mostly waits for memory: with equal weights the scaled figures
// followed the ALU kernel where the as-measured ones did not. The shares are the ones at which ten same-code runs
// spread least (results/reference-kernels.txt).
type scaling struct {
	setup, rate, p99 bool
	aluShare         float64
}

// ALU shares of the workloads that are scaled.
const (
	aluShareForward = 0.2 // one goroutine, a cache-missing lookup per packet
	aluShareMixed   = 0.3 // the same loop beside a control goroutine that does not miss the cache
	aluShareN4      = 0.3 // codec and session set-up in two processes and the kernel
)

// opMetrics fills the end-to-end metrics from the set-up time, a phase's
// rate windows and a phase's latency windows (the same phase except on
// wire-forward), scaling those sc names by the speed host sampled (the
// set-up ran seconds before the windows, on the same host in the same
// state). Windows too thin for a p99 are left out and counted in a note;
// the run fails only when no window is left.
func opMetrics(e env, res *result, setup metric, rate, lat windowStats, host *hostRef, sc scaling) {
	speed := host.speed(sc.aluShare)
	if host != nil {
		res.note("host speed %.3f of nominal (reference kernels: ALU %.0f ns at weight %.1f, memory %.0f ns, %d samples); scaled to it: set-up %v, rate %v, p99 %v",
			speed, median(host.alu), sc.aluShare, median(host.mem), len(host.alu), sc.setup, sc.rate, sc.p99)
		res.note("as measured, before scaling: set-up %.4g s, %.6g ops/s, p99 %.4g us", setup.Value, median(rate.rate), median(lat.p99)/1e3)
	}
	by := func(on bool) float64 {
		if on {
			return speed
		}
		return 1
	}
	setup.Value, setup.IQR = setup.Value*by(sc.setup), setup.IQR*by(sc.setup)
	res.set("setup_s", setup)
	res.set("ops_per_s", overWindows(rate.rate, 1/by(sc.rate), "1/s", len(rate.rate)))
	res.set("op_lat_p99_us", overWindows(lat.p99, by(sc.p99)/1e3, "us", lat.samples))
	if lat.thin > 0 {
		res.note("%d of %d latency windows hold fewer than %d samples (the generator or the host stalled) and are left out of the percentiles",
			lat.thin, len(lat.rate), e.sc.MinSamples)
	}
	if len(rate.rate) == 0 || len(lat.p99) == 0 {
		res.fail("no complete %v window with %d latency samples in the timed phase", e.sc.Window, e.sc.MinSamples)
	}
}

// setP50 fills op_lat_p50_us, the median beside the end-to-end p99, from
// the untraced pass of a traced run.
func setP50(res *result, lat windowStats) {
	res.set("op_lat_p50_us", overWindows(lat.p50, 1e-3, "us", lat.samples))
}

// runInmem runs inmem-forward or inmem-mixed.
func runInmem(e env, res *result, mixed bool) error {
	if res.Trace {
		return traceInmem(e, res, mixed)
	}
	rig, setup, err := medianSetup(e, func() (*inmemRig, error) { return newInmemRig(e.sc, false) }, nil)
	if err != nil {
		return err
	}

	// Warm-up: every targeted user's limiter and encap template get built,
	// pools fill, and (mixed) the context free list starts recycling.
	if mixed {
		rig.runMixed(e.sc.Warm, e.seed, nil, nowNs())
	} else {
		rig.run(e.sc.Warm, e.seed, nil, nil, nil)
	}
	host := newHostRef()
	runtime.GC()

	t0 := nowNs()
	ser := newSeries(t0, e.sc.Window, e.dur, int(e.dur.Seconds()*400_000)+1024)
	ser.host = host
	var st loopStats
	var ctl *sigDriver
	if mixed {
		st, ctl = rig.runMixed(e.dur, e.seed, ser, t0)
	} else {
		st = rig.run(e.dur, e.seed, nil, ser, nil)
	}
	ws := reduce(e.sc.MinSamples, ser)
	share := aluShareForward
	if mixed {
		share = aluShareMixed
	}
	opMetrics(e, res, setup, ws, ws, host, scaling{setup: true, rate: true, p99: true, aluShare: share})
	inmemChecks(res, rig, st, ctl)
	return nil
}

// inmemChecks applies the in-memory output checks and fills the run's
// attempted/failed counts: every offered packet must leave egress (AMBRs
// are sized so no drop is expected), the byte-checked sample must match,
// and after inmem-mixed the control state must add up.
func inmemChecks(res *result, rig *inmemRig, st loopStats, ctl *sigDriver) {
	res.Attempted += st.offered
	res.Failed += st.offered - st.egress + st.bad
	if st.egress != st.offered {
		dp := rig.slice.Data()
		res.fail("egress %d ≠ ingress %d (data-plane dropped %d, missed %d, demux unknown %d)",
			st.egress, st.offered, dp.Dropped.Load(), dp.Missed.Load(), rig.node.Demux().Unknown.Load())
	}
	if st.bad > 0 {
		res.fail("%d of %d byte-checked packets differ from what was sent", st.bad, st.checked)
	}
	if st.checked == 0 {
		res.fail("no packet was byte-checked")
	}
	res.note("byte-checked %d of %d packets (1 in 1024), all egress counted", st.checked, st.offered)
	if ctl == nil {
		return
	}
	res.Attempted += ctl.events + ctl.detached
	res.Failed += ctl.failed
	if ctl.failed > 0 {
		res.fail("%d signaling operations refused (ring full or re-attach failed)", ctl.failed)
	}
	if err := rig.checkMixed(ctl); err != nil {
		res.fail("%v", err)
	}
	res.note("signaling: %d events applied in %d drains, %d detach+re-attach, open loop at %.0f events/s",
		ctl.events, ctl.drains, ctl.reattached, rig.sc.SigRate)
}

// traceInmem is the traced run of an inmem workload: the workload
// untraced for the counters only a real run has, then its single-
// goroutine replica with the tracer off and on, then the layer probes.
func traceInmem(e env, res *result, mixed bool) error {
	name := res.Workload
	rig, err := newInmemRig(e.sc, true)
	if err != nil {
		return err
	}
	res.set("core.attach_ns_per_user", metric{Value: rig.attachNs, Unit: "ns", N: e.sc.Users})
	res.set("state.mem_b_per_user", metric{Value: rig.memPerUser, Unit: "B", N: e.sc.Users})
	rig.run(e.sc.Warm/2, e.seed, nil, nil, nil)
	runtime.GC()

	// Pass 1: the workload as the untraced run has it.
	dp, dmx := rig.slice.Data(), rig.node.Demux()
	dropped0, missed0, steered0, unknown0 := dp.Dropped.Load(), dp.Missed.Load(), dmx.Steered.Load(), dmx.Unknown.Load()
	gc := markGC()
	var st loopStats
	var ctl *sigDriver
	t0 := nowNs()
	ser := newSeries(t0, e.sc.Window, e.dur/2, int(e.dur.Seconds()*200_000)+1024)
	ser.host = newHostRef()
	if mixed {
		st, ctl = rig.runMixed(e.dur/2, e.seed, ser, t0)
	} else {
		st = rig.run(e.dur/2, e.seed, nil, ser, nil)
	}
	g := gc.since()
	setP50(res, reduce(e.sc.MinSamples, ser))
	share := aluShareForward
	if mixed {
		share = aluShareMixed
	}
	res.set("host.speed", metric{Value: ser.host.speed(share), Unit: "fraction", N: len(ser.host.alu)})
	// The node's steer path frees on a full ring without counting: what it
	// neither steered nor called unknown was a ring-full tail drop.
	full := st.offered - int64(dmx.Steered.Load()-steered0) - int64(dmx.Unknown.Load()-unknown0)
	inmemChecks(res, rig, st, ctl)
	res.set("go.gc_cycles", metric{Value: float64(g.cycles), Unit: "count"})
	res.set("go.gc_pause_p99_us", metric{Value: g.pauseP99, Unit: "us", N: int(g.cycles)})
	res.set("pkt.allocs_per_pkt", metric{Value: float64(g.mallocs) / float64(st.offered), Unit: "count", N: int(st.offered)})
	res.set("core.fwd_dropped", metric{Value: float64(dp.Dropped.Load() - dropped0), Unit: "count"})
	res.set("core.fwd_missed", metric{Value: float64(dp.Missed.Load() - missed0), Unit: "count"})
	res.set("core.sig_drops", metric{Value: float64(rig.slice.Control().Stats().SigDrops), Unit: "count"})
	res.set("ring.full_drops", metric{Value: float64(full), Unit: "count"})
	if ctl != nil {
		ws := reduce(1, ctl.ser)
		res.set("core.sig_lat_p50_us", overWindows(ws.p50, 1e-3, "us", ws.samples))
		res.set("core.sig_lat_p99_us", overWindows(ws.p99, 1e-3, "us", ws.samples))
		late := reduce(1, ctl.late)
		res.set("gen.late_p99_us", overWindows(late.p99, 1e-3, "us", late.samples))
	}

	// Passes 2 and 3: the replica, tracer off then on. For inmem-forward
	// the replica is the workload; for inmem-mixed the control thread's
	// work runs inline between bursts so one goroutine's spans add up.
	replica := func(tr *tracer) loopStats {
		var inline *sigDriver
		if mixed {
			inline = newSigDriver(rig, e.seed, nowNs(), e.dur/4)
		}
		return rig.run(e.dur/4, e.seed, tr, nil, inline)
	}
	off := replica(nil)
	tr := newTracer()
	on := replica(tr)
	perItem := func(name string, st stage) {
		res.set(name, metric{Value: tr.sums[st].perItem(), Unit: "ns", N: int(tr.sums[st].Items)})
	}
	perItem("core.steer_ns_per_pkt", stCoreSteer)
	perItem("core.ul_ns_per_pkt", stCoreUL)
	perItem("core.dl_ns_per_pkt", stCoreDL)
	perItem("gen.ns_per_pkt", stGenBuild)
	sync := tr.sums[stCoreSync]
	res.set("core.sync_ns_per_call", metric{Value: sync.perCall(), Unit: "ns", N: int(sync.Calls)})
	res.set("core.sync_updates_per_call", metric{Value: float64(sync.Items) / float64(sync.Calls), Unit: "count", N: int(sync.Calls)})
	if drain := tr.sums[stCoreSigDrain]; drain.Calls > 0 {
		perItem("core.sig_enqueue_ns", stCoreSigEnqueue)
		perItem("core.sig_drain_ns_per_event", stCoreSigDrain)
		res.set("core.sig_events_per_drain", metric{Value: float64(drain.Items) / float64(drain.Calls), Unit: "count", N: int(drain.Calls)})
	}
	if err := traceMetrics(e, res, tr, name, off, on); err != nil {
		return err
	}
	probeLayers(e, res, rig.sc.Users, false)
	return nil
}

// traceMetrics writes the trace file and fills the trace's own two
// metrics: how much of the traced pass its stages account for, and what
// tracing cost against the same loop with the tracer off.
func traceMetrics(e env, res *result, tr *tracer, name string, off, on loopStats) error {
	path, err := tr.write(e.outDir, name, e.seed, on.wallNs)
	if err != nil {
		return err
	}
	rec := tr.reconcile(on.wallNs)
	res.set("trace.reconcile_share", metric{Value: rec, Unit: "fraction", N: int(tr.bursts)})
	rateOff := float64(off.egress) / float64(off.wallNs)
	rateOn := float64(on.egress) / float64(on.wallNs)
	res.set("trace.overhead_share", metric{Value: 1 - rateOn/rateOff, Unit: "fraction"})
	if math.Abs(rec-1) > 0.1 {
		res.fail("trace.reconcile_share %.3f further than 0.1 from 1", rec)
	}
	top := ""
	for _, s := range tr.topStages()[:3] { // every replica has more stages than that
		top += " " + s.Name
	}
	res.note("wrote %s (%d bursts timed, the spans of 1 in %d kept: %d); top stages by self time:%s", path, tr.bursts, sampleEvery, len(tr.spans), top)
	return nil
}
