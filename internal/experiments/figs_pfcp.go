package experiments

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pepc/internal/core"
	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/sockio"
)

// pfcpWindows is the number of independent measurement windows folded
// (by max) into each data point.
const pfcpWindows = 3

// PFCPFig measures N4 session churn over loopback UDP (DESIGN.md
// §4.17): a UPF node serving PFCP with the loop cmd/pepcd runs
// (UPF.Serve: burst gather, handle, one signaling flush, then respond), driven
// by concurrent SMF workers — each a pfcp.Client running establishment →
// modification → deletion cycles, the cmd/smfsim shape. The sweep is
// sessions/s against worker count for the full cycle and for
// establish/delete only; the gap between the two series is the
// modification cost, which rides the batched signaling path.
func PFCPFig(sc Scale) (Result, error) {
	workers := []int{1, 2, 4, 8}
	cycles := sc.EventsPerPoint
	if cycles < 256 {
		cycles = 256
	}

	full := sim.Series{Name: "establish+modify+delete"}
	nomod := sim.Series{Name: "establish+delete"}
	var retransmits uint64

	for _, w := range workers {
		rFull, rtx, err := pfcpChurnRun(w, cycles, true)
		if err != nil {
			return Result{}, err
		}
		retransmits += rtx
		rNomod, rtx2, err := pfcpChurnRun(w, cycles, false)
		if err != nil {
			return Result{}, err
		}
		retransmits += rtx2
		full.Points = append(full.Points, sim.Point{X: float64(w), Y: rFull})
		nomod.Points = append(nomod.Points, sim.Point{X: float64(w), Y: rNomod})
		gcNow()
	}

	bestFull := full.Points[len(full.Points)-1].Y
	for _, p := range full.Points {
		if p.Y > bestFull {
			bestFull = p.Y
		}
	}
	notes := []string{
		"closed loop over loopback UDP: one UPF service goroutine (burst gather + one signaling flush per burst, the cmd/pepcd serveN4 shape), one PFCP endpoint per SMF worker",
		"each cycle is a full session life: establishment installs PDR/FAR/QER onto the slice machinery, modification rewrites the tunnel and the rate bounds through the batched signaling path, deletion tears the user down",
		fmt.Sprintf("each point is the fastest of %d measurement windows of %d cycles", pfcpWindows, cycles),
		fmt.Sprintf("best full-cycle rate %.0f sessions/s; establish+delete omits the modification exchange", bestFull),
	}
	if retransmits > 0 {
		notes = append(notes, fmt.Sprintf("%d retransmits across the sweep (loopback drops under contention; retried within the measured window)", retransmits))
	}
	return Result{
		Figure: "pfcp",
		Title:  "N4 (PFCP) session churn: sessions/s vs concurrent SMF workers",
		XLabel: "SMF workers",
		YLabel: "sessions/s",
		Series: []sim.Series{full, nomod},
		Notes:  notes,
	}, nil
}

// pfcpChurnRun measures one (workers, modify) point: total cycles split
// across the workers, fastest of pfcpWindows windows, returning
// sessions/s and the retransmit count.
func pfcpChurnRun(workers, cycles int, modify bool) (float64, uint64, error) {
	node := core.NewNode(core.SliceConfig{ID: 1, UserHint: 4 * workers})
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, fmt.Errorf("pfcp: loopback unavailable: %w", err)
	}
	conn, err := sockio.NewConn(pc.(*net.UDPConn))
	if err != nil {
		pc.Close()
		return 0, 0, err
	}
	upf := core.NewUPF(node, pkt.IPv4Addr(127, 0, 0, 1))
	done := make(chan struct{})
	go func() { defer close(done); upf.Serve(conn) }()
	stop := func() { conn.Close(); <-done }

	clients := make([]*pfcp.Client, workers)
	for w := range clients {
		c, err := pfcp.Dial(pc.LocalAddr().String(), pkt.IPv4Addr(10, 255, 0, uint8(w+1)))
		if err != nil {
			stop()
			return 0, 0, err
		}
		defer c.Close()
		c.SetRetransmit(200*time.Millisecond, 5)
		if err := c.Associate(); err != nil {
			stop()
			return 0, 0, fmt.Errorf("pfcp: associate: %w", err)
		}
		clients[w] = c
	}

	perWorker := cycles / workers
	if perWorker < 8 {
		perWorker = 8
	}
	// churn runs one worker's share of a window. Identifiers embed the
	// worker and iteration so concurrent sessions never collide; every
	// cycle deletes its session, so windows reuse them cleanly.
	churn := func(c *pfcp.Client, w int) error {
		for i := 0; i < perWorker; i++ {
			teid := 0x5E00_0000 | uint32(w+1)<<20 | uint32(i)
			req := &pfcp.SessionRequest{
				CreatePDRs: []pfcp.PDR{
					{ID: 1, Precedence: 100, SourceInterface: pfcp.InterfaceAccess,
						TEID: teid, TEIDAddr: pkt.IPv4Addr(127, 0, 0, 1),
						OuterHeaderRemoval: true, FARID: 2, QERID: 1},
					{ID: 2, Precedence: 100, SourceInterface: pfcp.InterfaceCore,
						UEAddr: pkt.IPv4Addr(45, uint8(w+1), uint8(i>>8), uint8(i)), FARID: 1, QERID: 1},
				},
				CreateFARs: []pfcp.FAR{
					{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
						OuterHeaderCreation: true, TEID: 0xD000_0000 | uint32(i), Addr: pkt.IPv4Addr(192, 168, 50, uint8(w+1))},
					{ID: 2, DestinationInterface: pfcp.InterfaceCore},
				},
				CreateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 50_000, MBRDownlinkKbps: 100_000}},
			}
			seid, err := c.Establish(req)
			if err != nil {
				return fmt.Errorf("pfcp: establish: %w", err)
			}
			if modify {
				if err := c.Modify(&pfcp.SessionRequest{
					SEID: seid,
					UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
						OuterHeaderCreation: true, TEID: 0xD100_0000 | uint32(i), Addr: pkt.IPv4Addr(192, 168, 51, uint8(w+1))}},
					UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: 20_000, MBRDownlinkKbps: 40_000}},
				}); err != nil {
					return fmt.Errorf("pfcp: modify: %w", err)
				}
			}
			if err := c.Delete(seid); err != nil {
				return fmt.Errorf("pfcp: delete: %w", err)
			}
		}
		return nil
	}

	// Warm one short round so pool and map growth stay out of the windows.
	if err := func() error {
		save := perWorker
		perWorker = 8
		defer func() { perWorker = save }()
		return churn(clients[0], 0)
	}(); err != nil {
		stop()
		return 0, 0, err
	}
	gcNow()

	best := 0.0
	var ferr error
	for win := 0; win < pfcpWindows && ferr == nil; win++ {
		var wg sync.WaitGroup
		var completed atomic.Int64
		var errMu sync.Mutex
		start := time.Now()
		for w, c := range clients {
			wg.Add(1)
			go func(c *pfcp.Client, w int) {
				defer wg.Done()
				if err := churn(c, w); err != nil {
					errMu.Lock()
					ferr = err
					errMu.Unlock()
					return
				}
				completed.Add(int64(perWorker))
			}(c, w)
		}
		wg.Wait()
		if el := time.Since(start); el > 0 {
			if r := float64(completed.Load()) / el.Seconds(); r > best {
				best = r
			}
		}
	}

	var rtx uint64
	for _, c := range clients {
		rtx += c.Retransmits
	}
	stop()
	if ferr != nil {
		return 0, rtx, ferr
	}
	return best, rtx, nil
}
