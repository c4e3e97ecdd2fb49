package cluster

import (
	"errors"
	"testing"

	"pepc/internal/core"
	"pepc/internal/lb"
	"pepc/internal/pkt"
	"pepc/internal/workload"
)

// attachN admits n users (IMSI 1..n) and returns their generator
// coordinates.
func attachN(t *testing.T, c *Cluster, n int) []workload.User {
	t.Helper()
	users := make([]workload.User, 0, n)
	for i := 1; i <= n; i++ {
		res, _, err := c.Attach(core.AttachSpec{
			IMSI: uint64(i), ENBAddr: 1, DownlinkTEID: uint32(0x9000 + i),
		})
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		users = append(users, workload.User{
			IMSI: uint64(i), UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr,
		})
	}
	c.SyncAll()
	return users
}

// drainAll empties every slice ring in the cluster, freeing buffers,
// and returns how many packets were queued.
func drainAll(c *Cluster) int {
	batch := make([]*pkt.Buf, 64)
	total := 0
	for _, name := range c.Names() {
		n := c.Node(name)
		if n == nil { // removed between the Names snapshot and the lookup
			continue
		}
		for i := 0; i < n.NumSlices(); i++ {
			s := n.Slice(i)
			for {
				k := s.Uplink.DequeueBatch(batch)
				if k == 0 {
					break
				}
				for j := 0; j < k; j++ {
					batch[j].Free()
				}
				total += k
			}
			for {
				k := s.Downlink.DequeueBatch(batch)
				if k == 0 {
					break
				}
				for j := 0; j < k; j++ {
					batch[j].Free()
				}
				total += k
			}
		}
	}
	return total
}

// checkRoutable asserts every directory user is found on its
// balancer-picked owner's demux.
func checkRoutable(t *testing.T, c *Cluster, users []workload.User) {
	t.Helper()
	for _, u := range users {
		owner, ok := c.Owner(u.IMSI)
		if !ok {
			t.Fatalf("user %d lost from directory", u.IMSI)
		}
		n := c.Node(owner)
		if n == nil {
			t.Fatalf("user %d owned by unknown node %s", u.IMSI, owner)
		}
		if _, ok := n.Demux().LookupSliceByIMSI(u.IMSI); !ok {
			t.Fatalf("user %d not registered on owner %s", u.IMSI, owner)
		}
	}
}

func TestClusterAttachAndSteer(t *testing.T) {
	c, err := New(Config{Nodes: 2, SlicesPerNode: 2, UserHint: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	users := attachN(t, c, n)
	if c.Users() != n || c.TotalAttached() != n {
		t.Fatalf("users: dir=%d attached=%d", c.Users(), c.TotalAttached())
	}
	checkRoutable(t, c, users)

	// Identifiers embed the steering key, the user's seq, in both
	// directions, and come from core's scheme: every node steers both to
	// the user's slice by prefix alone.
	for _, u := range users {
		seq, _ := c.SeqOf(u.IMSI)
		if SteerKey(u.UplinkTEID) != uint64(seq) || SteerKey(u.UEAddr) != uint64(seq) {
			t.Fatalf("user %d: TEID %#x and addr %#x do not carry seq %d", u.IMSI, u.UplinkTEID, u.UEAddr, seq)
		}
		for _, name := range c.Names() {
			d := c.Node(name).Demux()
			up, okUp := d.LookupSlice(u.UplinkTEID)
			down, okDown := d.LookupSliceByIP(u.UEAddr)
			if want := int(seq) % 2; !okUp || !okDown || up != want || down != want {
				t.Fatalf("user %d on %s steers to slices %d/%d, want %d", u.IMSI, name, up, down, want)
			}
		}
	}

	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 1, CoreAddr: 2, Burst: 4}, users)
	st := c.NewSteerer(32, nil)
	sent := 0
	var burst [16]*pkt.Buf
	for round := 0; round < 50; round++ {
		for i := range burst {
			burst[i], _ = gen.Next()
		}
		st.Steer(burst[:])
		sent += len(burst)
	}
	stats := c.Stats()
	queued := drainAll(c)
	if stats.Unknown != 0 || st.Drops != 0 {
		t.Fatalf("drops on a stable cluster: unknown=%d steererDrops=%d", stats.Unknown, st.Drops)
	}
	if stats.Steered != uint64(sent) || queued != sent {
		t.Fatalf("steered %d, queued %d, sent %d", stats.Steered, queued, sent)
	}
}

func TestClusterSteerZeroAlloc(t *testing.T) {
	c, err := New(Config{Nodes: 2, UserHint: 64})
	if err != nil {
		t.Fatal(err)
	}
	users := attachN(t, c, 4)
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 1, CoreAddr: 2}, users)

	const batch = 8
	st := c.NewSteerer(batch, nil)
	u := users[0]
	owner, _ := c.Owner(u.IMSI)
	s := c.Node(owner).Slice(int(mustSeq(t, c, u.IMSI)) % c.cfg.SlicesPerNode)

	bufs := make([]*pkt.Buf, batch)
	for i := range bufs {
		bufs[i] = gen.UplinkFor(u)
	}
	scratch := make([]*pkt.Buf, batch)
	round := func() {
		st.Steer(bufs)
		got := 0
		for got < batch {
			got += s.Uplink.DequeueBatch(scratch[got:])
		}
		copy(bufs, scratch[:batch])
	}
	round() // warm scratch and the per-node steer view
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("cluster steer steady state allocates %.1f allocs/burst, want 0", allocs)
	}
	drainAll(c)
}

func mustSeq(t *testing.T, c *Cluster, imsi uint64) uint32 {
	t.Helper()
	seq, ok := c.SeqOf(imsi)
	if !ok {
		t.Fatalf("no seq for %d", imsi)
	}
	return seq
}

func TestAddNodeMigratesOnlyRemapped(t *testing.T) {
	c, err := New(Config{Nodes: 3, UserHint: 2048, TableSize: 65537})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	users := attachN(t, c, n)
	ownerBefore := make(map[uint64]string, n)
	for _, u := range users {
		ownerBefore[u.IMSI], _ = c.Owner(u.IMSI)
	}

	name, rep, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 4 {
		t.Fatalf("size %d after add", c.Size())
	}
	// Maglev disruption bound on the table itself: a single membership
	// change remaps at most ~2·M/N entries (N after the change).
	bound := 2 * rep.TableSize / 4
	if rep.RemappedEntries == 0 || rep.RemappedEntries > bound {
		t.Fatalf("remapped %d of %d entries, bound %d", rep.RemappedEntries, rep.TableSize, bound)
	}
	if rep.Failed != 0 {
		t.Fatalf("failed transfers: %d", rep.Failed)
	}
	// The moved population tracks the remapped key fraction.
	expect := n * rep.RemappedEntries / rep.TableSize
	if rep.Moved < expect/2 || rep.Moved > expect*2 {
		t.Fatalf("moved %d users, expected ≈%d (remapped fraction)", rep.Moved, expect)
	}
	if c.Users() != n || c.TotalAttached() != n {
		t.Fatalf("population changed: dir=%d attached=%d", c.Users(), c.TotalAttached())
	}
	checkRoutable(t, c, users)
	// Nearly every move landed on the new node: Maglev minimizes (but
	// does not fully eliminate) cross-survivor remaps, so allow a small
	// residue.
	movedTo, movedElse := 0, 0
	for _, u := range users {
		owner, _ := c.Owner(u.IMSI)
		if owner != ownerBefore[u.IMSI] {
			if owner == name {
				movedTo++
			} else {
				movedElse++
			}
		}
	}
	if movedTo+movedElse != rep.Moved {
		t.Fatalf("owner diff %d != report moved %d", movedTo+movedElse, rep.Moved)
	}
	if movedElse > rep.Moved/5 {
		t.Fatalf("%d of %d moves went to survivors, want a small residue", movedElse, rep.Moved)
	}
}

func TestRemoveNodeDrains(t *testing.T) {
	c, err := New(Config{Nodes: 3, UserHint: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	users := attachN(t, c, n)
	victim := c.Names()[1]
	onVictim := 0
	for _, u := range users {
		if owner, _ := c.Owner(u.IMSI); owner == victim {
			onVictim++
		}
	}

	rep, err := c.RemoveNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved != onVictim || rep.Failed != 0 {
		t.Fatalf("moved %d (failed %d), victim held %d", rep.Moved, rep.Failed, onVictim)
	}
	if c.Size() != 2 || c.Node(victim) != nil {
		t.Fatalf("victim still present: size=%d", c.Size())
	}
	if c.Users() != n || c.TotalAttached() != n {
		t.Fatalf("population changed: dir=%d attached=%d", c.Users(), c.TotalAttached())
	}
	checkRoutable(t, c, users)

	// Shrinking to zero is refused.
	if _, err := c.RemoveNode(c.Names()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveNode(c.Names()[0]); err != ErrLastNode {
		t.Fatalf("removing the last node: %v", err)
	}
	if c.Users() != n {
		t.Fatalf("users lost shrinking to one node: %d", c.Users())
	}
	checkRoutable(t, c, users)
}

func TestDetachRecyclesSeq(t *testing.T) {
	c, err := New(Config{Nodes: 1, UserHint: 64})
	if err != nil {
		t.Fatal(err)
	}
	res1, _, err := c.Attach(core.AttachSpec{IMSI: 1, ENBAddr: 1, DownlinkTEID: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach(core.AttachSpec{IMSI: 1, ENBAddr: 1, DownlinkTEID: 0x100}); err == nil {
		t.Fatal("duplicate IMSI attached")
	}
	if err := c.Detach(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(1); err != ErrUserUnknown {
		t.Fatalf("double detach: %v", err)
	}
	if c.Users() != 0 || c.TotalAttached() != 0 {
		t.Fatalf("population after detach: dir=%d attached=%d", c.Users(), c.TotalAttached())
	}
	res2, _, err := c.Attach(core.AttachSpec{IMSI: 2, ENBAddr: 1, DownlinkTEID: 0x101})
	if err != nil {
		t.Fatal(err)
	}
	if res2.UplinkTEID != res1.UplinkTEID || res2.UEAddr != res1.UEAddr {
		t.Fatalf("seq not recycled: %#x/%#x then %#x/%#x",
			res1.UplinkTEID, res1.UEAddr, res2.UplinkTEID, res2.UEAddr)
	}
}

// TestLastNodeRemovalFailsClosed pins both halves of the empty-backend
// contract. Refusal: RemoveNode down to zero nodes returns ErrLastNode,
// which errors.Is-matches lb.ErrNoBackends — the typed cause an empty
// Maglev rebuild would surface — and leaves the population routable.
// Fail-closed: if the balancer nonetheless goes empty under in-flight
// steering, every buffer of the burst is freed and counted as a drop;
// nothing is delivered off a stale table.
func TestLastNodeRemovalFailsClosed(t *testing.T) {
	c, err := New(Config{Nodes: 1, UserHint: 64})
	if err != nil {
		t.Fatal(err)
	}
	users := attachN(t, c, 4)

	_, rmErr := c.RemoveNode(c.Names()[0])
	if rmErr != ErrLastNode {
		t.Fatalf("removing the last node: %v, want ErrLastNode", rmErr)
	}
	if !errors.Is(rmErr, lb.ErrNoBackends) {
		t.Fatalf("ErrLastNode does not wrap lb.ErrNoBackends: %v", rmErr)
	}
	if c.Users() != len(users) {
		t.Fatalf("refused removal lost users: %d", c.Users())
	}
	checkRoutable(t, c, users)

	// Steering still works after the refused removal.
	gen := workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 1, CoreAddr: 2, Burst: 4}, users)
	st := c.NewSteerer(16, nil)
	var burst [16]*pkt.Buf
	for i := range burst {
		burst[i], _ = gen.Next()
	}
	st.Steer(burst[:])
	if st.Drops != 0 {
		t.Fatalf("drops on a healthy single-node cluster: %d", st.Drops)
	}
	if queued := drainAll(c); queued != len(burst) {
		t.Fatalf("queued %d of %d on a healthy cluster", queued, len(burst))
	}

	// Force the hazard the refusal guards against: an empty backend set
	// under a live Steerer. The in-flight burst must fail closed.
	if err := c.bal.Remove(c.Names()[0]); err != nil {
		t.Fatal(err)
	}
	for i := range burst {
		burst[i], _ = gen.Next()
	}
	st.Steer(burst[:])
	if st.Drops != uint64(len(burst)) {
		t.Fatalf("empty-balancer burst: %d drops, want %d", st.Drops, len(burst))
	}
	if queued := drainAll(c); queued != 0 {
		t.Fatalf("%d packet(s) delivered off a stale table", queued)
	}
}
