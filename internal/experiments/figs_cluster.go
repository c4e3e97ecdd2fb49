package experiments

import (
	"fmt"
	"runtime"
	"time"

	"pepc/internal/cluster"
	"pepc/internal/core"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/workload"
)

// ClusterFig is the multi-node evaluation the paper's §3.3 Demux layer
// implies but never measures: N PEPC nodes behind one Maglev table
// serving a single (up to million-user) population. Three series:
//
//   - aggregate Mpps vs node count (1/2/4), the Fig-7 linearity
//     argument lifted from cores to nodes — every packet pays the full
//     cluster steering cost (classify once, Maglev batch pick, per-node
//     demux) before its slice processes it;
//   - rebalance disruption: the fraction of users moved by one
//     membership change, against Maglev's remap bound;
//   - recovery time vs population after a node kill, via checkpoint
//     restore + update-queue reconcile + scatter to survivors.
//
// The aggregate series runs one closed-loop driver lane per node through
// runLanes (Scale.Lanes: concurrently, or measure-and-sum and marked
// Derived).
func ClusterFig(sc Scale) (Result, error) {
	r := Result{
		Figure: "cluster",
		Title:  "Maglev-sharded multi-node data plane: scaling, rebalance, recovery",
		XLabel: "nodes",
		YLabel: "aggregate Mpps / percent / ms",
	}
	const maxNodes = 4
	totalUsers := sc.users(1_000_000)

	agg := sim.Series{Name: fmt.Sprintf("PEPC cluster aggregate (%s users)", sim.FormatQty(float64(totalUsers)))}
	for _, k := range []int{1, 2, 4} {
		v, err := median3(func() (float64, error) {
			lr, err := clusterAggregate(sc, k, maxNodes, totalUsers)
			agg.Derived = lr.Derived
			gcNow()
			return lr.Mpps, err
		})
		if err != nil {
			return r, err
		}
		agg.Points = append(agg.Points, sim.Point{X: float64(k), Y: v})
	}
	r.Series = append(r.Series, agg)
	r.Notes = append(r.Notes, lanesNote(agg.Derived))

	disruption, notes, err := clusterRebalance(sc, totalUsers)
	if err != nil {
		return r, err
	}
	r.Series = append(r.Series, disruption)
	r.Notes = append(r.Notes, notes...)

	recovery, rnotes, err := clusterRecovery(sc, totalUsers)
	if err != nil {
		return r, err
	}
	r.Series = append(r.Series, recovery)
	r.Notes = append(r.Notes, rnotes...)
	r.Notes = append(r.Notes, "expected shape: aggregate Mpps ≥3x from 1 to 4 nodes; moved users bounded by the Maglev remap fraction; recovery time linear in population")
	return r, nil
}

// buildCluster attaches totalUsers across k nodes and returns the
// cluster plus the population partitioned by owning node (balancer
// order).
func buildCluster(k, totalUsers int) (*cluster.Cluster, [][]workload.User, error) {
	c, err := cluster.New(cluster.Config{
		Nodes:    k,
		UserHint: totalUsers/k + 1,
	})
	if err != nil {
		return nil, nil, err
	}
	names := c.Names()
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	pops := make([][]workload.User, len(names))
	for i := 0; i < totalUsers; i++ {
		imsi := uint64(i + 1)
		res, owner, err := c.Attach(core.AttachSpec{
			IMSI: imsi, ENBAddr: 1, DownlinkTEID: 0x0200_0000 | uint32(imsi),
		})
		if err != nil {
			return nil, nil, err
		}
		oi := index[owner]
		pops[oi] = append(pops[oi], workload.User{
			IMSI: imsi, UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr,
		})
	}
	c.SyncAll()
	return c, pops, nil
}

// clusterLane is one node's closed-loop driver: it generates traffic
// for the node's own users, steers it through the full cluster path
// (classify + Maglev pick + per-node wire steer), then runs the node's
// slices inline and recycles buffers. Lanes are share-nothing: each
// owns its generator, steerer and node, so k lanes model k servers.
type clusterLane struct {
	node *core.Node
	st   *cluster.Steerer
	gen  *workload.TrafficGen
	sg   *workload.SignalingGen
}

func newClusterLane(c *cluster.Cluster, name string, pop []workload.User) *clusterLane {
	return &clusterLane{
		node: c.Node(name),
		st:   c.NewSteerer(32, nil),
		gen:  workload.NewTrafficGen(workload.TrafficConfig{ENBAddr: 1, CoreAddr: 2, Burst: 8}, pop),
		sg:   workload.NewSignalingGen(workload.EventAttach, pop),
	}
}

// run drives total packets through the lane with signaling interleaved
// at the Fig-7 rate (2 events per 1000 packets) and returns when done.
func (l *clusterLane) run(total int) {
	const batchSize = 32
	var burst [batchSize]*pkt.Buf
	var scratch [batchSize]*pkt.Buf
	drain := func() {
		for i := 0; i < l.node.NumSlices(); i++ {
			s := l.node.Slice(i)
			for s.RunPass(scratch[:]) > 0 {
			}
			drainRing(s)
		}
	}
	processed := 0
	eventDebt := 0.0
	for processed < total {
		n := batchSize
		if rem := total - processed; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			burst[i], _ = l.gen.Next()
		}
		l.st.Steer(burst[:n])
		drain()
		processed += n
		eventDebt += float64(n) * 2 / 1000.0
		for eventDebt >= 1 {
			ev := l.sg.Next()
			if si, ok := l.node.Demux().LookupSliceByIMSI(ev.IMSI); ok {
				l.node.Slice(si).Control().AttachEvent(ev.IMSI)
			}
			eventDebt--
		}
	}
	drain()
}

// clusterAggregate measures aggregate throughput for a k-node cluster,
// one lane per node; maxNodes is the sweep's widest point.
func clusterAggregate(sc Scale, k, maxNodes, totalUsers int) (laneRate, error) {
	c, pops, err := buildCluster(k, totalUsers)
	if err != nil {
		return laneRate{}, err
	}
	names := c.Names()
	perLane := sc.PacketsPerPoint / k
	warm := perLane / 10
	if warm > 4096 {
		warm = 4096
	}
	lanes := make([]lane, k)
	for i := range lanes {
		l := newClusterLane(c, names[i], pops[i])
		l.run(warm)
		lanes[i] = func(quota int) (int, error) { l.run(quota); return quota, nil }
	}
	runtime.GC()
	return runLanes(sc.Lanes, maxNodes, perLane, lanes)
}

// clusterRebalance measures membership-change disruption: the percent
// of the population moved by one AddNode (3→4) and one RemoveNode
// (4→3), against Maglev's table remap fraction.
func clusterRebalance(sc Scale, totalUsers int) (sim.Series, []string, error) {
	s := sim.Series{Name: "rebalance moved users (% of population)"}
	users := totalUsers / 4
	if users < 1000 {
		users = 1000
	}
	c, _, err := buildCluster(3, users)
	if err != nil {
		return s, nil, err
	}
	added, addRep, err := c.AddNode()
	if err != nil {
		return s, nil, err
	}
	addPct := float64(addRep.Moved) / float64(users) * 100
	s.Points = append(s.Points, sim.Point{X: 1, Y: addPct})

	remRep, err := c.RemoveNode(added)
	if err != nil {
		return s, nil, err
	}
	remPct := float64(remRep.Moved) / float64(users) * 100
	s.Points = append(s.Points, sim.Point{X: 2, Y: remPct})

	addBound := 2.0 * float64(addRep.RemappedEntries) / float64(addRep.TableSize) * 100
	notes := []string{
		fmt.Sprintf("rebalance (x=1 add 3→4, x=2 remove 4→3) over %s users: add moved %.1f%% (table remapped %.1f%%, Maglev bound ~2·M/N = 50%% of 1/4), remove moved %.1f%%; %d failed transfers",
			sim.FormatQty(float64(users)), addPct,
			float64(addRep.RemappedEntries)/float64(addRep.TableSize)*100, remPct,
			addRep.Failed+remRep.Failed),
	}
	if addRep.Failed+remRep.Failed > 0 {
		return s, notes, fmt.Errorf("experiments: cluster rebalance lost %d users", addRep.Failed+remRep.Failed)
	}
	// The moved fraction must track the remapped-entry fraction (the
	// Maglev guarantee), not the population size.
	if addPct > addBound+5 {
		return s, notes, fmt.Errorf("experiments: add moved %.1f%% of users, Maglev remap bound %.1f%%", addPct, addBound)
	}
	return s, notes, nil
}

// clusterRecovery measures node-failure recovery time against
// population: checkpoint, kill one of two nodes, rebuild its slices
// from the checkpoints and scatter the users to the survivor.
func clusterRecovery(sc Scale, totalUsers int) (sim.Series, []string, error) {
	s := sim.Series{Name: "node recovery time (ms)"}
	var notes []string
	for _, frac := range []int{8, 4, 2} {
		users := totalUsers / frac
		if users < 1000 {
			users = 1000
		}
		c, _, err := buildCluster(2, users)
		if err != nil {
			return s, nil, err
		}
		if _, err := c.CheckpointAll(); err != nil {
			return s, nil, err
		}
		victim := c.Names()[0]
		if err := c.KillNode(victim); err != nil {
			return s, nil, err
		}
		start := time.Now()
		rep, err := c.RecoverNode(victim)
		if err != nil {
			return s, nil, err
		}
		elapsed := time.Since(start)
		if rep.ImportFailed > 0 || rep.Orphans > 0 {
			return s, nil, fmt.Errorf("experiments: recovery lost users: %+v", rep)
		}
		if got := c.Users(); got != users {
			return s, nil, fmt.Errorf("experiments: population after recovery %d, want %d", got, users)
		}
		s.Points = append(s.Points, sim.Point{X: float64(users), Y: float64(elapsed.Milliseconds())})
		notes = append(notes, fmt.Sprintf("recovery of %s users' node: %d restored + %d replayed scattered in %.0fms (%.2fµs/user)",
			sim.FormatQty(float64(users)), rep.Restored, rep.Replayed,
			float64(elapsed.Milliseconds()), float64(elapsed.Microseconds())/float64(rep.UsersScattered+1)))
		gcNow()
	}
	return s, notes, nil
}
