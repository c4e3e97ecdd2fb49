package experiments

import (
	"bytes"
	"fmt"
	"time"

	"pepc/internal/core"
	"pepc/internal/fault"
	"pepc/internal/hss"
	"pepc/internal/pcef"
	"pepc/internal/pcrf"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
	"pepc/internal/workload"
)

// This file implements the robustness evaluation (DESIGN.md §4.12) the
// paper's §8 failure discussion motivates but does not measure: a PCRF
// outage sweep (how long a backend can be dark before signaling outcome
// degrades, and how fully the control thread repairs afterwards) and a
// chaos soak that churns attach/detach/handover/migration and
// crash-recovery cycles under randomized injected faults while checking
// the slice's structural invariants every epoch.

// soakPolicy is the deadline/retry budget faults experiments run the
// Diameter proxy under: worst case per round trip is
// Deadline*(MaxRetries+1) plus backoff, ~5ms.
var soakPolicy = core.CallPolicy{
	Deadline:         2 * time.Millisecond,
	MaxRetries:       1,
	Backoff:          100 * time.Microsecond,
	BackoffMax:       time.Millisecond,
	BreakerThreshold: 2,
	BreakerCooldown:  5 * time.Millisecond,
}

// soakDrainBudget bounds any single DrainSignaling call during a fault
// epoch: the per-procedure worst case under soakPolicy with CI slack.
const soakDrainBudget = 250 * time.Millisecond

func soakRules() []pcef.Rule {
	return []pcef.Rule{{
		ID: 1, Precedence: 1, Action: pcef.ActionDrop,
		Filter: pcef.FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: 25, DstPortHi: 25},
	}}
}

// Faults regenerates the robustness table: attach outcome vs PCRF
// outage duration, followed by a chaos soak. Registered as "faults".
func Faults(sc Scale) (Result, error) {
	durations := []int{0, 2, 5, 10, 20}
	degraded := sim.Series{Name: "degraded_attach_%"}
	repaired := sim.Series{Name: "repaired_%"}
	shorted := sim.Series{Name: "gx_short_circuits"}

	users := sc.users(400)
	for _, ms := range durations {
		d, r, s, err := outagePoint(ms, users)
		if err != nil {
			return Result{}, err
		}
		degraded.Points = append(degraded.Points, sim.Point{X: float64(ms), Y: d})
		repaired.Points = append(repaired.Points, sim.Point{X: float64(ms), Y: r})
		shorted.Points = append(shorted.Points, sim.Point{X: float64(ms), Y: float64(s)})
		gcNow()
	}

	epochs := sc.FaultEpochs
	if epochs <= 0 {
		epochs = 3
	}
	seed := sc.FaultSeed
	if seed == 0 {
		seed = 1
	}
	stats, violations := runChaosSoak(seed, epochs, sc.users(256))
	notes := []string{
		fmt.Sprintf("attaches during outage complete degraded (default bearer) and are repaired by RepairDegraded once the breaker closes; budget per Gx round trip %v", soakPolicy.Deadline*time.Duration(soakPolicy.MaxRetries+1)),
		fmt.Sprintf("chaos soak: %d epochs, %d attaches, %d detaches, %d handovers, %d migrations, %d cross-node moves, %d recoveries, %d injected stalls, %d sig drops — %d invariant violations",
			stats.Epochs, stats.Attaches, stats.Detaches, stats.Handovers, stats.Migrations, stats.NodeMoves, stats.Recoveries, stats.Stalls, stats.SigDrops, len(violations)),
	}
	for _, v := range violations {
		notes = append(notes, "VIOLATION: "+v)
	}
	if len(violations) > 0 {
		return Result{}, fmt.Errorf("experiments: chaos soak found %d invariant violations: %s", len(violations), violations[0])
	}
	return Result{
		Figure: "faults",
		Title:  "Robustness: PCRF outage duration vs attach outcome, plus chaos soak",
		XLabel: "outage (ms)",
		YLabel: "percent / count",
		Series: []sim.Series{degraded, repaired, shorted},
		Notes:  notes,
	}, nil
}

// outagePoint attaches `users` devices while the PCRF is dark for the
// first `ms` milliseconds, then lets maintenance repair the backlog.
// Returns (degraded %, repaired % of degraded, breaker short circuits).
func outagePoint(ms, users int) (float64, float64, uint64, error) {
	h := hss.New()
	h.ProvisionRange(1, users, 10e6, 50e6)
	policy := pcrf.New()
	policy.SetDefaultRules(soakRules())
	p := core.NewProxy(h, policy)
	p.SetPolicy(soakPolicy)
	inj := fault.New(uint64(ms)*7919 + 13)
	p.SetGxFaults(inj)

	s := core.NewSlice(core.SliceConfig{ID: 1, UserHint: users * 2})
	s.Control().SetProxy(p)

	if ms > 0 {
		inj.Arm(fault.DiameterDrop, fault.RateMax)
	}
	start := time.Now()
	dark := ms > 0
	for i := 1; i <= users; i++ {
		if dark && time.Since(start) >= time.Duration(ms)*time.Millisecond {
			inj.DisarmAll()
			dark = false
		}
		if _, err := s.Control().Attach(core.AttachSpec{IMSI: uint64(i)}); err != nil {
			return 0, 0, 0, fmt.Errorf("attach %d during outage: %w", i, err)
		}
	}
	inj.DisarmAll()
	time.Sleep(soakPolicy.BreakerCooldown + time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for s.Control().DegradedBacklog() > 0 && time.Now().Before(deadline) {
		s.Control().RepairDegraded(0)
	}
	st := s.Control().Stats()
	ps := p.Stats()
	degPct := float64(st.DegradedAttaches) / float64(users) * 100
	repPct := 100.0
	if st.DegradedAttaches > 0 {
		repPct = float64(st.Repairs) / float64(st.DegradedAttaches) * 100
	}
	return degPct, repPct, ps.ShortCircuits, nil
}

// SoakStats summarizes one chaos soak run.
type SoakStats struct {
	Epochs     int
	Attaches   int
	Detaches   int
	Handovers  int
	Migrations int
	// NodeMoves counts cross-node export/import transfers (the cluster
	// migration path) exercised during the soak.
	NodeMoves  int
	Recoveries int
	Stalls     uint64
	SigDrops   uint64
}

// runChaosSoak is the chaos harness: per epoch it derives a randomized
// fault plan from the seed (deterministic per (seed, epoch)), arms it
// across the Diameter proxy, the signaling ring and the data thread,
// churns the population with attaches, traffic, handovers, detaches and
// cross-slice migrations, runs a checkpoint/crash/recover cycle, then
// disarms and validates invariants: user-count conservation, bounded
// signaling drains, and a drained repair backlog.
// Returns the violations found (empty on a clean soak).
func runChaosSoak(seed uint64, epochs, usersPerEpoch int) (SoakStats, []string) {
	var stats SoakStats
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	h := hss.New()
	h.ProvisionRange(1, epochs*usersPerEpoch+1, 10e6, 50e6)
	policy := pcrf.New()
	policy.SetDefaultRules(soakRules())
	proxy := core.NewProxy(h, policy)
	proxy.SetPolicy(soakPolicy)

	inj := fault.New(seed)
	n := core.NewNode(
		core.SliceConfig{ID: 1, UserHint: 1 << 12},
		core.SliceConfig{ID: 2, UserHint: 1 << 12},
	)
	n.AttachProxy(proxy)
	proxy.SetGxFaults(inj)
	s0, s1 := n.Slice(0), n.Slice(1)
	s0.SetFaults(inj)

	// A peer node receives cross-node moves (the cluster migration
	// path), extending the conservation invariants across the node
	// boundary.
	peer := core.NewNode(core.SliceConfig{ID: 3, UserHint: 1 << 12})
	peerLive := map[uint64]struct{}{}

	// Slice 0's data thread runs for the whole soak; slice 1 (the
	// migration target) is driven inline by the driver.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { s0.RunData(stop); close(done) }()
	defer func() { close(stop); <-done }()

	// live tracks which slice each attached user is in (driver view).
	live := map[uint64]int{}
	var nextIMSI uint64 = 1

	drainTimed := func(cp *core.ControlPlane) {
		for {
			start := time.Now()
			got := cp.DrainSignaling(0)
			if el := time.Since(start); el > soakDrainBudget {
				fail("DrainSignaling blocked %v (> %v)", el, soakDrainBudget)
			}
			if got == 0 {
				return
			}
		}
	}

	for e := 0; e < epochs; e++ {
		stats.Epochs++
		plan := fault.EpochPlan(seed, e, fault.RateMax/8, 300*time.Microsecond,
			fault.DiameterDrop, fault.DiameterDelay, fault.DiameterError,
			fault.RingOverflow, fault.WorkerStall)
		inj.Apply(plan)

		// Attach churn (degraded attaches allowed while Gx faults fire).
		epochUsers := make([]workload.User, 0, usersPerEpoch)
		for i := 0; i < usersPerEpoch; i++ {
			imsi := nextIMSI
			nextIMSI++
			res, err := n.AttachUser(0, core.AttachSpec{
				IMSI: imsi, ENBAddr: pkt.IPv4Addr(192, 168, 0, 1),
				DownlinkTEID: 0x0200_0000 | uint32(imsi),
			})
			if err != nil {
				fail("epoch %d: attach %d failed: %v", e, imsi, err)
				continue
			}
			live[imsi] = 0
			stats.Attaches++
			epochUsers = append(epochUsers, workload.User{IMSI: imsi, UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr})
		}

		// Traffic through the node's steering path, which wakes the
		// (possibly stalling) parked data thread.
		gen := workload.NewTrafficGen(workload.TrafficConfig{CoreAddr: s0.Config().CoreAddr}, epochUsers)
		for i := 0; i < 1024; i++ {
			n.SteerUplink(gen.NextUplink())
		}
		// Handovers and detaches through the (possibly overflowing)
		// signaling ring; a shed event keeps the old state, which the
		// conservation check below must reflect — so only count what was
		// actually enqueued.
		for i, u := range epochUsers {
			if i%3 == 0 {
				if s0.Control().EnqueueSignal(core.SigEvent{
					Kind: core.SigS1Handover, IMSI: u.IMSI,
					ENBAddr: pkt.IPv4Addr(192, 168, 1, byte(i)), DownlinkTEID: u.UplinkTEID ^ 0xffff,
				}) {
					stats.Handovers++
				}
			}
			if i%5 == 4 {
				if s0.Control().EnqueueSignal(core.SigEvent{Kind: core.SigDetach, IMSI: u.IMSI}) {
					delete(live, u.IMSI)
					stats.Detaches++
				}
			}
		}
		drainTimed(s0.Control())

		// Cross-slice migrations of a few surviving users.
		moved := 0
		for _, u := range epochUsers {
			if moved >= 8 {
				break
			}
			if sl, ok := live[u.IMSI]; ok && sl == 0 {
				if err := n.Scheduler().MigrateUser(u.IMSI, 0, 1); err != nil {
					fail("epoch %d: migrate %d: %v", e, u.IMSI, err)
					continue
				}
				live[u.IMSI] = 1
				stats.Migrations++
				moved++
			}
		}
		s1.Data().SyncUpdates()

		// Cross-node moves: ship a few slice-1 users to the peer node
		// through the serialized export/import path, checking exact
		// counter conservation across the node boundary.
		exported := 0
		for _, u := range epochUsers {
			if exported >= 4 {
				break
			}
			if sl, ok := live[u.IMSI]; !ok || sl != 1 {
				continue
			}
			var want state.CounterState
			if ue := s1.Control().Lookup(u.IMSI); ue != nil {
				ue.ReadCounters(func(c *state.CounterState) { want = *c })
			}
			msg, err := n.Scheduler().ExportUser(u.IMSI, 1)
			if err != nil {
				fail("epoch %d: export %d: %v", e, u.IMSI, err)
				continue
			}
			delete(live, u.IMSI)
			if err := peer.Scheduler().ImportUser(msg, 0); err != nil {
				fail("epoch %d: import %d: %v", e, u.IMSI, err)
				continue
			}
			peerLive[u.IMSI] = struct{}{}
			ue := peer.Slice(0).Control().Lookup(u.IMSI)
			if ue == nil {
				fail("epoch %d: user %d lost crossing nodes", e, u.IMSI)
				continue
			}
			var got state.CounterState
			ue.ReadCounters(func(c *state.CounterState) { got = *c })
			if got != want {
				fail("epoch %d: user %d counters diverged crossing nodes: %+v → %+v", e, u.IMSI, want, got)
			}
			stats.NodeMoves++
			exported++
		}
		peer.Slice(0).Data().SyncUpdates()

		// Crash/recovery cycle on an independent slice, seeded per epoch.
		if v := crashCycle(seed, uint64(e)); v != "" { // per-epoch deterministic seed
			fail("epoch %d: %s", e, v)
		}
		stats.Recoveries++

		// Epoch end: disarm, settle, verify invariants.
		inj.DisarmAll()
		drainTimed(s0.Control())
		deadline := time.Now().Add(5 * time.Second)
		for s0.Control().DegradedBacklog() > 0 && time.Now().Before(deadline) {
			time.Sleep(soakPolicy.BreakerCooldown)
			s0.Control().RepairDegraded(0)
		}
		if bl := s0.Control().DegradedBacklog(); bl > 0 {
			fail("epoch %d: repair backlog stuck at %d", e, bl)
		}

		want0, want1 := 0, 0
		for _, sl := range live {
			if sl == 0 {
				want0++
			} else {
				want1++
			}
		}
		if got := s0.Users(); got != want0 {
			fail("epoch %d: slice0 users = %d, want %d (conservation)", e, got, want0)
		}
		if got := s1.Users(); got != want1 {
			fail("epoch %d: slice1 users = %d, want %d (conservation)", e, got, want1)
		}
		if got := peer.Slice(0).Users(); got != len(peerLive) {
			fail("epoch %d: peer users = %d, want %d (cross-node conservation)", e, got, len(peerLive))
		}
	}
	stats.SigDrops = s0.Control().SigDrops.Load()
	// Data-thread stalls are counted by the injector that fires them.
	stats.Stalls = inj.Fired(fault.WorkerStall)
	return stats, violations
}

// crashCycle runs one deterministic checkpoint/crash/recover round on a
// standalone slice and verifies the recovery invariants.
// Returns "" on success, a violation description otherwise.
func crashCycle(seed, epoch uint64) string {
	const base, ckpUsers, extra, drops = 100_000, 32, 8, 4
	mk := func() *core.Slice {
		return core.NewSlice(core.SliceConfig{ID: 3, UserHint: 128})
	}
	src := mk()
	off := base + int(fault.Hash64(seed^epoch)%1000)*64
	attach := func(i int) error {
		_, err := src.Control().Attach(core.AttachSpec{
			IMSI: uint64(off + i), ENBAddr: 1, DownlinkTEID: uint32(i + 1),
		})
		return err
	}
	for i := 1; i <= ckpUsers; i++ {
		if err := attach(i); err != nil {
			return fmt.Sprintf("crash cycle attach: %v", err)
		}
	}
	src.Data().SyncUpdates()
	var ckp bytes.Buffer
	if _, err := src.Checkpoint(&ckp); err != nil {
		return fmt.Sprintf("checkpoint: %v", err)
	}
	for i := ckpUsers + 1; i <= ckpUsers+extra; i++ {
		if err := attach(i); err != nil {
			return fmt.Sprintf("post-checkpoint attach: %v", err)
		}
	}
	for i := 1; i <= drops; i++ {
		if err := src.Control().Detach(uint64(off + i)); err != nil {
			return fmt.Sprintf("post-checkpoint detach: %v", err)
		}
	}
	dst := mk()
	rep, err := dst.RecoverFrom(bytes.NewReader(ckp.Bytes()), src)
	if err != nil {
		return fmt.Sprintf("recover: %v", err)
	}
	want := ckpUsers + extra - drops
	if dst.Users() != want {
		return fmt.Sprintf("recovered users = %d, want %d (restored=%d replayed=%d detached=%d)",
			dst.Users(), want, rep.Restored, rep.Replayed, rep.CompletedDetaches)
	}
	if rep.Replayed != extra || rep.CompletedDetaches != drops {
		return fmt.Sprintf("recovery report off: %+v", rep)
	}
	return ""
}
