package cluster

import (
	"sync"
	"testing"

	"pepc/internal/core"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/state"
	"pepc/internal/workload"
)

// processAll inline-runs every queued packet through its slice's data
// plane and drains egress, returning the number forwarded.
func processAll(c *Cluster) int {
	batch := make([]*pkt.Buf, 64)
	forwarded := 0
	for _, name := range c.Names() {
		n := c.Node(name)
		for i := 0; i < n.NumSlices(); i++ {
			s := n.Slice(i)
			before := s.Data().Forwarded.Load()
			for {
				k := s.Uplink.DequeueBatch(batch)
				if k == 0 {
					break
				}
				s.Data().ProcessUplinkBatch(batch[:k], sim.Now())
			}
			forwarded += int(s.Data().Forwarded.Load() - before)
			for {
				b, ok := s.Egress.Dequeue()
				if !ok {
					break
				}
				b.Free()
			}
		}
	}
	return forwarded
}

// TestKillRecoverConservation is the cluster failure drill: a node dies
// with pre-checkpoint users (with traffic counters), post-checkpoint
// attaches surviving only in its update queues, and the whole
// population must come back on the survivors with counters intact.
func TestKillRecoverConservation(t *testing.T) {
	c, err := New(Config{Nodes: 3, SlicesPerNode: 2, UserHint: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const base = 600
	users := attachN(t, c, base)

	// Traffic so recovered counters are non-trivial.
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 1, CoreAddr: 2, Burst: 4}, users)
	st := c.NewSteerer(32, nil)
	var burst [32]*pkt.Buf
	const rounds = 40
	for round := 0; round < rounds; round++ {
		for i := range burst {
			burst[i] = gen.NextUplink()
		}
		st.Steer(burst[:])
	}
	if got := processAll(c); got != rounds*len(burst) {
		t.Fatalf("forwarded %d of %d before the crash", got, rounds*len(burst))
	}

	if _, err := c.CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint attaches: no SyncAll, so on the victim they live
	// only in its control stores and update queues.
	const extra = 60
	for i := base + 1; i <= base+extra; i++ {
		res, _, err := c.Attach(core.AttachSpec{
			IMSI: uint64(i), ENBAddr: 1, DownlinkTEID: uint32(0x9000 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, workload.User{
			IMSI: uint64(i), UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr,
		})
	}

	victim := c.Names()[0]
	victimUsers := make(map[uint64]state.CounterState)
	vnode := c.Node(victim)
	for _, u := range users {
		if owner, _ := c.Owner(u.IMSI); owner == victim {
			var cnt state.CounterState
			si, _ := vnode.Demux().LookupSliceByIMSI(u.IMSI)
			ue := vnode.Slice(si).Control().Lookup(u.IMSI)
			ue.ReadCounters(func(cs *state.CounterState) { cnt = *cs })
			victimUsers[u.IMSI] = cnt
		}
	}
	if len(victimUsers) == 0 {
		t.Fatal("victim held no users")
	}

	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	// Mid-outage traffic for dead-node users drops as Missed on the
	// re-picked owners — measurable, not fatal. (The burst mixes victim
	// and survivor users, so only part of it drops.)
	for i := range burst {
		burst[i] = gen.NextUplink()
	}
	st.Steer(burst[:])
	drainAll(c)

	rep, err := c.RecoverNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlicesRecovered != 2 {
		t.Fatalf("slices recovered: %d", rep.SlicesRecovered)
	}
	if rep.ImportFailed != 0 || rep.Orphans != 0 {
		t.Fatalf("recovery lost users: %+v", rep)
	}
	if rep.UsersScattered != len(victimUsers) {
		t.Fatalf("scattered %d, victim held %d", rep.UsersScattered, len(victimUsers))
	}
	if rep.Replayed == 0 {
		t.Fatal("no post-checkpoint attach was replayed from the update queue")
	}
	total := base + extra
	if c.Users() != total || c.TotalAttached() != total {
		t.Fatalf("population after recovery: dir=%d attached=%d want %d", c.Users(), c.TotalAttached(), total)
	}
	checkRoutable(t, c, users)

	// Counters survived the crash for every user the queue still
	// referenced; checkpointed-only users are at worst checkpoint-stale
	// (here: identical, no traffic ran between checkpoint and crash).
	for imsi, want := range victimUsers {
		owner, _ := c.Owner(imsi)
		n := c.Node(owner)
		si, ok := n.Demux().LookupSliceByIMSI(imsi)
		if !ok {
			t.Fatalf("user %d unreachable after recovery", imsi)
		}
		ue := n.Slice(si).Control().Lookup(imsi)
		var got state.CounterState
		ue.ReadCounters(func(cs *state.CounterState) { got = *cs })
		if got != want {
			t.Fatalf("user %d counters diverged:\n pre  %+v\n post %+v", imsi, want, got)
		}
	}

	// Recovered users serve traffic at their new homes: the whole burst
	// after recovery forwards.
	for i := range burst {
		burst[i] = gen.NextUplink()
	}
	st.Steer(burst[:])
	if got := processAll(c); got != len(burst) {
		t.Fatalf("post-recovery burst: forwarded %d of %d (unknown %d)", got, len(burst), c.Stats().Unknown)
	}
}

// TestClusterConcurrentChurn is the race-detector drill: an attach
// storm, a steering loop, and membership churn (grow, kill, recover)
// run concurrently against one cluster. Invariants are checked at the
// end; the test's value under -race is the interleaving itself.
func TestClusterConcurrentChurn(t *testing.T) {
	c, err := New(Config{Nodes: 2, SlicesPerNode: 2, UserHint: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const warm = 400
	users := attachN(t, c, warm)
	if _, err := c.CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Attach storm.
	const storm = 1200
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := warm + 1; i <= warm+storm; i++ {
			if _, _, err := c.Attach(core.AttachSpec{
				IMSI: uint64(i), ENBAddr: 1, DownlinkTEID: uint32(0x9000 + i),
			}); err != nil {
				t.Errorf("storm attach %d: %v", i, err)
				return
			}
		}
	}()

	// Steering loop over the warm population.
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 1, CoreAddr: 2, Burst: 4}, users)
		st := c.NewSteerer(16, nil)
		var burst [16]*pkt.Buf
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range burst {
				burst[i], _ = gen.Next()
			}
			st.Steer(burst[:])
			drainAll(c)
		}
	}()

	// Membership churn: grow, drain one away, kill one, recover it.
	added, _, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveNode(added); err != nil {
		t.Fatal(err)
	}
	victim := c.Names()[1]
	if _, err := c.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}

	close(stop)
	wg.Wait()
	drainAll(c)

	// The kill window can orphan users attached to the victim after its
	// checkpoint (that is what checkpoint lag means); everyone else
	// survives, and the directory agrees with the nodes.
	if c.TotalAttached() != c.Users() {
		t.Fatalf("directory %d != attached %d", c.Users(), c.TotalAttached())
	}
	if c.Users() < warm {
		t.Fatalf("population collapsed: %d", c.Users())
	}
	c.SyncAll()
	for _, u := range users {
		if _, ok := c.Owner(u.IMSI); !ok {
			continue // orphaned in the kill window
		}
	}
	// Delivery check from this thread: counters on removed carcasses die
	// with them, so the goroutine's deliveries may be invisible in
	// Stats() by now. The warm users were all checkpointed before the
	// churn, so every one survives it and a fresh burst must land.
	before := c.Stats()
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 1, CoreAddr: 2, Burst: 4}, users)
	st := c.NewSteerer(16, nil)
	var burst [16]*pkt.Buf
	for i := range burst {
		burst[i], _ = gen.Next()
	}
	st.Steer(burst[:])
	drainAll(c)
	after := c.Stats()
	if after.Steered-before.Steered != uint64(len(burst)) {
		t.Fatalf("post-churn burst: steered %d of %d (unknown +%d)",
			after.Steered-before.Steered, len(burst), after.Unknown-before.Unknown)
	}
}
