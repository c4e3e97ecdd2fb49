package core

import (
	"testing"
	"time"

	"pepc/internal/fault"
	"pepc/internal/hss"
	"pepc/internal/pcef"
	"pepc/internal/pcrf"
	"pepc/internal/pkt"
	"pepc/internal/state"
)

// outageRules is the PCC profile the PCRF hands out when reachable; its
// presence distinguishes a full attach from a degraded one.
func outageRules() []pcef.Rule {
	return []pcef.Rule{{
		ID: 1, Precedence: 1, Action: pcef.ActionDrop,
		Filter: pcef.FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: 25, DstPortHi: 25},
	}}
}

// outagePolicy is the tight deadline/retry budget the outage tests run
// under: worst case per Gx round trip is Deadline*(MaxRetries+1) plus
// the backoff sum, ~5ms — small enough that a wall-clock bound proves
// the control thread never blocks on a dark PCRF.
var outagePolicy = CallPolicy{
	Deadline:         2 * time.Millisecond,
	MaxRetries:       1,
	Backoff:          100 * time.Microsecond,
	BackoffMax:       time.Millisecond,
	BreakerThreshold: 2,
	BreakerCooldown:  5 * time.Millisecond,
}

// outageBudget bounds one signaling procedure under the policy above:
// the per-call worst case with generous CI slack. The point is "bounded
// by the configured deadline budget, not hung"; a dark backend without
// deadlines would block indefinitely.
const outageBudget = 100 * time.Millisecond

// The acceptance scenario: with the PCRF dark (every Gx request
// dropped), attaches complete degraded on the default bearer within the
// deadline budget, no DrainSignaling call blocks past it, the breaker
// opens and short-circuits the storm, and recovery repairs the degraded
// users back to full PCC state.
func TestPCRFOutageDegradesAndRecovers(t *testing.T) {
	h := hss.New()
	h.ProvisionRange(1, 100, 10e6, 50e6)
	policy := pcrf.New()
	policy.SetDefaultRules(outageRules())
	p := NewProxy(h, policy)
	p.SetPolicy(outagePolicy)

	inj := fault.New(42)
	inj.Arm(fault.DiameterDrop, fault.RateMax) // total Gx outage
	p.SetGxFaults(inj)

	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	s.Control().SetProxy(p)

	// Attaches during the outage: every one must complete (degraded) and
	// each must return within the deadline budget.
	const users = 20
	for i := 1; i <= users; i++ {
		start := time.Now()
		if _, err := s.Control().Attach(AttachSpec{IMSI: uint64(i)}); err != nil {
			t.Fatalf("attach %d failed during outage: %v", i, err)
		}
		if el := time.Since(start); el > outageBudget {
			t.Fatalf("attach %d blocked %v (> %v)", i, el, outageBudget)
		}
	}
	st := s.Control().Stats()
	if st.DegradedAttaches != users {
		t.Fatalf("degraded attaches = %d", st.DegradedAttaches)
	}
	if s.Control().DegradedBacklog() != users {
		t.Fatalf("backlog = %d", s.Control().DegradedBacklog())
	}
	ps := p.Stats()
	if ps.BreakerOpens == 0 || ps.ShortCircuits == 0 {
		t.Fatalf("breaker never engaged: %+v", ps)
	}
	if p.GxAvailable() {
		t.Fatal("breaker reports Gx available mid-outage")
	}

	// Signaling keeps draining under the outage: detaches run their Gx
	// termination against the dark backend, and each drain call is
	// bounded by the deadline budget.
	s.Control().EnqueueSignal(SigEvent{Kind: SigDetach, IMSI: 19})
	s.Control().EnqueueSignal(SigEvent{Kind: SigDetach, IMSI: 20})
	start := time.Now()
	for s.Control().DrainSignaling(0) > 0 {
	}
	if el := time.Since(start); el > outageBudget {
		t.Fatalf("DrainSignaling blocked %v (> %v)", el, outageBudget)
	}
	if s.Control().Lookup(20) != nil {
		t.Fatal("detach did not execute during outage")
	}

	// Outage ends: disarm, wait out the breaker cooldown, and let
	// RepairDegraded drain the backlog (the detached users were dropped
	// from it by the repair pass's liveness check).
	inj.DisarmAll()
	time.Sleep(outagePolicy.BreakerCooldown + time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for s.Control().DegradedBacklog() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair stalled, backlog = %d", s.Control().DegradedBacklog())
		}
		s.Control().RepairDegraded(0)
		time.Sleep(time.Millisecond)
	}
	if got := s.Control().Stats().Repairs; got != users-2 {
		t.Fatalf("repairs = %d, want %d", got, users-2)
	}
	// A repaired user carries full PCC state again.
	s.Control().Lookup(5).ReadCtrl(func(c *state.ControlState) {
		if c.RuleCount == 0 {
			t.Fatal("repaired user still has no PCC rules")
		}
	})
	if policy.ActiveSessions() != users-2 {
		t.Fatalf("PCRF sessions after repair = %d", policy.ActiveSessions())
	}
}

// Injected signaling-ring overflow surfaces as the existing SigDrops
// backpressure, never as a block or a crash.
func TestInjectedRingOverflowShedsBoundedly(t *testing.T) {
	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	inj := fault.New(7)
	inj.Arm(fault.RingOverflow, fault.RateMax)
	s.SetFaults(inj)
	if s.Control().EnqueueSignal(SigEvent{Kind: SigAttachEvent, IMSI: 1}) {
		t.Fatal("enqueue succeeded under injected overflow")
	}
	if got := s.Control().SigDrops.Load(); got != 1 {
		t.Fatalf("SigDrops = %d", got)
	}
	inj.DisarmAll()
	if !s.Control().EnqueueSignal(SigEvent{Kind: SigAttachEvent, IMSI: 1}) {
		t.Fatal("enqueue failed after disarm")
	}
}

// A flaky (not dark) backend is healed by retries: with a 25% drop rate
// and two retries, attaches succeed with full PCC state, and the retry
// counter shows the recovery work.
func TestRetriesAbsorbFlakyBackend(t *testing.T) {
	h := hss.New()
	h.ProvisionRange(1, 100, 10e6, 50e6)
	policy := pcrf.New()
	policy.SetDefaultRules(outageRules())
	p := NewProxy(h, policy)
	pol := outagePolicy
	pol.MaxRetries = 4
	pol.BreakerThreshold = 100 // keep the breaker out of this test
	p.SetPolicy(pol)

	inj := fault.New(99)
	inj.Arm(fault.DiameterDrop, fault.RateMax/4)
	p.SetGxFaults(inj)

	s := NewSlice(SliceConfig{ID: 1, UserHint: 64})
	s.Control().SetProxy(p)
	full := 0
	for i := 1; i <= 30; i++ {
		if _, err := s.Control().Attach(AttachSpec{IMSI: uint64(i)}); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		s.Control().Lookup(uint64(i)).ReadCtrl(func(c *state.ControlState) {
			if c.RuleCount > 0 {
				full++
			}
		})
	}
	if full != 30 {
		t.Fatalf("only %d/30 attaches got full PCC state", full)
	}
	if p.Retries.Load() == 0 {
		t.Fatal("no retries recorded under 25%% drop rate")
	}
}
