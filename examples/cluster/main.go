// Cluster: the end-to-end architecture of §3.4 — a Maglev-style load
// balancer fronts two PEPC nodes behind one virtual IP; users attach and
// are served by whichever node the balancer assigns; then a user is
// migrated across nodes (the §3.5 "move processing closer to the user"
// case) and the balancer override redirects its traffic with no loss of
// state.
package main

import (
	"fmt"
	"log"

	"pepc"
	"pepc/internal/lb"
	"pepc/internal/pkt"
	"pepc/internal/state"
	"pepc/internal/workload"
)

func main() {
	const users = 1_000

	// Two PEPC nodes behind the cluster VIP.
	nodes := []*pepc.Node{
		pepc.NewNode(pepc.SliceConfig{ID: 1, UserHint: users}),
		pepc.NewNode(pepc.SliceConfig{ID: 1, UserHint: users}),
	}
	balancer, err := lb.New([]string{"node-0", "node-1"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	// Migration overrides: users explicitly moved off their hash-assigned
	// node (a production balancer programs these as connection overrides).
	override := map[uint32]int{} // uplink TEID -> node

	// Attach each user on the node its IMSI hashes to.
	pop := make([]workload.User, users)
	home := make([]int, users)
	counts := [2]int{}
	for i := 0; i < users; i++ {
		imsi := uint64(i + 1)
		nodeIdx, _, err := balancer.PickIMSI(imsi)
		if err != nil {
			log.Fatal(err)
		}
		res, err := nodes[nodeIdx].AttachUser(0, pepc.AttachSpec{
			IMSI: imsi, ENBAddr: pkt.IPv4Addr(192, 168, 0, 1), DownlinkTEID: uint32(i + 1),
		})
		if err != nil {
			log.Fatalf("attach %d: %v", imsi, err)
		}
		pop[i] = workload.User{IMSI: imsi, UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr}
		home[i] = nodeIdx
		counts[nodeIdx]++
	}
	fmt.Printf("cluster: %d users balanced %d/%d across two nodes\n", users, counts[0], counts[1])

	// steer sends one uplink packet through the balancer to its node.
	gens := []*pepc.TrafficGen{
		pepc.NewTrafficGen(pepc.TrafficConfig{CoreAddr: nodes[0].Slice(0).Config().CoreAddr}, pop),
		pepc.NewTrafficGen(pepc.TrafficConfig{CoreAddr: nodes[1].Slice(0).Config().CoreAddr}, pop),
	}
	proc := make([]*pepc.Buf, 8)
	steer := func(u workload.User, nodeIdx int) {
		b := gens[nodeIdx].UplinkFor(u)
		nodes[nodeIdx].SteerUplink(b)
		// Drive the node's data plane inline: one pass syncs and
		// forwards the packet.
		s := nodes[nodeIdx].Slice(0)
		s.RunPass(proc)
		for {
			out, ok := s.Egress.Dequeue()
			if !ok {
				break
			}
			out.Free()
		}
	}
	routeOf := func(u workload.User, homeIdx int) int {
		if n, ok := override[u.UplinkTEID]; ok {
			return n
		}
		return homeIdx
	}

	// Pass one packet per user through the cluster.
	for i, u := range pop {
		steer(u, routeOf(u, home[i]))
	}
	f0 := nodes[0].Slice(0).Data().Forwarded.Load()
	f1 := nodes[1].Slice(0).Data().Forwarded.Load()
	fmt.Printf("traffic: node-0 forwarded %d, node-1 forwarded %d (total %d)\n", f0, f1, f0+f1)

	// Move user 1 to the other node: export, ship, import, override.
	u := pop[0]
	src := home[0]
	dst := 1 - src
	msg, err := nodes[src].Scheduler().ExportUser(u.IMSI, 0)
	if err != nil {
		log.Fatalf("export: %v", err)
	}
	if err := nodes[dst].Scheduler().ImportUser(msg, 0); err != nil {
		log.Fatalf("import: %v", err)
	}
	override[u.UplinkTEID] = dst
	fmt.Printf("migrated user %d: node-%d -> node-%d\n", u.IMSI, src, dst)

	// Its traffic now flows on the new node, counters intact.
	steer(u, routeOf(u, home[0]))
	ue := nodes[dst].Slice(0).Control().Lookup(u.IMSI)
	var pkts uint64
	ue.ReadCounters(func(c *state.CounterState) { pkts = c.UplinkPackets })
	fmt.Printf("user %d on node-%d: UplinkPackets=%d (1 before + 1 after the move)\n", u.IMSI, dst, pkts)
}
