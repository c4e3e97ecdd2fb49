package experiments

import (
	"fmt"

	"pepc/internal/core"
	"pepc/internal/legacy"
	"pepc/internal/sim"
	"pepc/internal/workload"
)

// Fig4 regenerates Figure 4: data-plane throughput comparison between
// PEPC, Industrial#1, Industrial#2, OpenAirInterface and OpenEPC under
// the paper's configurations (250K users + 10K attach/s for PEPC and
// Industrial#1; 292K users + 3K events/s for Industrial#2; a single user
// for OAI/OpenEPC).
func Fig4(sc Scale) (Result, error) {
	r := Result{
		Figure: "Figure 4",
		Title:  "Data plane performance comparison (Mpps/core)",
		XLabel: "system",
		YLabel: "Mpps per core",
	}
	// The 10K attach/s against the paper's data rate is ~1:500
	// signaling:data; express it per 1000 packets.
	const pepcEvents = 2 // 1:500

	// PEPC @ 250K users.
	{
		users := sc.users(250_000)
		s := core.NewSlice(core.SliceConfig{ID: 1, UserHint: users})
		pop, err := attachPopulation(s, users, 1_000_000)
		if err != nil {
			return r, err
		}
		gen := workload.NewTrafficGen(workload.TrafficConfig{CoreAddr: s.Config().CoreAddr}, pop)
		sg := workload.NewSignalingGen(workload.EventAttach, pop)
		v := pepcRun(s, gen, sc.PacketsPerPoint, pepcEvents, sg)
		r.Series = append(r.Series, sim.Series{Name: "PEPC", Points: []sim.Point{{X: 1, Y: v}}})
	}
	// Legacy presets.
	for i, preset := range []legacy.Preset{legacy.Industrial1, legacy.Industrial2, legacy.OAI, legacy.OpenEPC} {
		users := sc.users(250_000)
		events := pepcEvents
		switch preset {
		case legacy.Industrial2:
			users = sc.users(292_000)
			events = 1 // 3K events/s against their data rate
		case legacy.OAI, legacy.OpenEPC:
			users = 1
			events = 0
		}
		e := legacy.New(legacy.Config{Preset: preset, UserHint: users})
		pop, err := attachLegacyPopulation(e, users, 1)
		if err != nil {
			return r, err
		}
		gen := workload.NewTrafficGen(workload.TrafficConfig{}, pop)
		sg := workload.NewSignalingGen(workload.EventAttach, pop)
		total := sc.PacketsPerPoint
		if preset == legacy.OAI || preset == legacy.OpenEPC {
			total = sc.PacketsPerPoint / 10 // kernel path is slow; same statistics
		}
		v := legacyRun(e, gen, total, events, sg)
		r.Series = append(r.Series, sim.Series{Name: preset.String(), Points: []sim.Point{{X: float64(i + 2), Y: v}}})
		gcNow()
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("populations capped at %d users by scale", sc.MaxUsers),
		"paper shape: PEPC > 3x Industrial#2, ~6x Industrial#1, >10x OAI/OpenEPC")
	return r, nil
}

// Fig5 regenerates Figure 5: data-plane throughput as the user population
// grows, for PEPC and Industrial#1 (10K attach/s interleaved) and
// Industrial#2 reference points (no signaling).
func Fig5(sc Scale) (Result, error) {
	r := Result{
		Figure: "Figure 5",
		Title:  "Data plane performance with number of users",
		XLabel: "users",
		YLabel: "Mpps per core",
	}
	populations := []int{100_000, 250_000, 500_000, 1_000_000, 2_000_000, 3_000_000}
	if populations[0] > sc.MaxUsers {
		// Scaled-down sweep preserving the shape at small scales.
		populations = []int{sc.MaxUsers / 10, sc.MaxUsers / 4, sc.MaxUsers / 2, sc.MaxUsers}
	}
	var pepcPts, ind1Pts []sim.Point
	for _, want := range populations {
		if want > sc.MaxUsers || want < 1 {
			continue
		}
		// PEPC.
		{
			s := core.NewSlice(core.SliceConfig{ID: 1, UserHint: want})
			pop, err := attachPopulation(s, want, 1_000_000)
			if err != nil {
				return r, err
			}
			gen := workload.NewTrafficGen(workload.TrafficConfig{CoreAddr: s.Config().CoreAddr}, pop)
			sg := workload.NewSignalingGen(workload.EventAttach, pop)
			v := pepcRunBatched(s, gen, sc.PacketsPerPoint, 2 /* 10K attach/s : ~5Mpps */, sg)
			pepcPts = append(pepcPts, sim.Point{X: float64(want), Y: v})
		}
		gcNow()
		// Industrial#1.
		{
			e := legacy.New(legacy.Config{Preset: legacy.Industrial1, UserHint: want})
			pop, err := attachLegacyPopulation(e, want, 1)
			if err != nil {
				return r, err
			}
			gen := workload.NewTrafficGen(workload.TrafficConfig{}, pop)
			sg := workload.NewSignalingGen(workload.EventAttach, pop)
			v := legacyRun(e, gen, sc.PacketsPerPoint, 10 /* same 10K attach/s against ~1Mpps */, sg)
			ind1Pts = append(ind1Pts, sim.Point{X: float64(want), Y: v})
		}
		gcNow()
	}
	// Industrial#2 reference points from [37]: 128K and 292K users, no
	// signaling.
	var ind2Pts []sim.Point
	for _, want := range []int{128_000, 292_000} {
		n := sc.users(want)
		e := legacy.New(legacy.Config{Preset: legacy.Industrial2, UserHint: n})
		pop, err := attachLegacyPopulation(e, n, 1)
		if err != nil {
			return r, err
		}
		gen := workload.NewTrafficGen(workload.TrafficConfig{UplinkRatio: 3, DownlinkRatio: 1}, pop)
		v := legacyRun(e, gen, sc.PacketsPerPoint, 0, nil)
		ind2Pts = append(ind2Pts, sim.Point{X: float64(n), Y: v})
		gcNow()
	}
	r.Series = []sim.Series{
		{Name: "PEPC", Points: pepcPts},
		{Name: "Industrial#1", Points: ind1Pts},
		{Name: "Industrial#2", Points: ind2Pts},
	}
	r.Notes = append(r.Notes,
		"paper shape: PEPC sustains throughput to millions of users; Industrial#1 collapses >90% by 1M",
		fmt.Sprintf("population sweep capped at %d users by scale/memory", sc.MaxUsers),
		"PEPC signaling takes the batched control path (event ring, grouped drain)")
	return r, nil
}

// Fig6 regenerates Figure 6: PEPC data-plane throughput against the
// signaling:data ratio for three population sizes, with the Industrial#1
// reference behaviour.
func Fig6(sc Scale) (Result, error) {
	r := Result{
		Figure: "Figure 6",
		Title:  "Data plane performance vs signaling/data ratio",
		XLabel: "signaling:data (1:N)",
		YLabel: "Mpps per core",
	}
	ratios := []int{10000, 1000, 100, 10, 1} // 1:N
	pops := []int{1, 10_000, 1_000_000}
	for _, p := range pops {
		n := sc.users(p)
		if n < 1 {
			n = 1
		}
		s := core.NewSlice(core.SliceConfig{ID: 1, UserHint: n})
		pop, err := attachPopulation(s, n, 5_000_000)
		if err != nil {
			return r, err
		}
		gen := workload.NewTrafficGen(workload.TrafficConfig{CoreAddr: s.Config().CoreAddr}, pop)
		sg := workload.NewSignalingGen(workload.EventAttach, pop)
		var pts []sim.Point
		for _, ratio := range ratios {
			v := pepcRunBatched(s, gen, sc.PacketsPerPoint, ratioEvents(ratio), sg)
			pts = append(pts, sim.Point{X: float64(ratio), Y: v})
		}
		r.Series = append(r.Series, sim.Series{Name: fmt.Sprintf("PEPC %s users", sim.FormatQty(float64(n))), Points: pts})
		gcNow()
	}
	// Industrial#1 under the same ratio sweep (collapses long before 1:1).
	{
		n := sc.users(250_000)
		e := legacy.New(legacy.Config{Preset: legacy.Industrial1, UserHint: n})
		pop, err := attachLegacyPopulation(e, n, 1)
		if err != nil {
			return r, err
		}
		gen := workload.NewTrafficGen(workload.TrafficConfig{}, pop)
		sg := workload.NewSignalingGen(workload.EventAttach, pop)
		var pts []sim.Point
		for _, ratio := range ratios {
			total := sc.PacketsPerPoint
			if ratio <= 10 {
				total = sc.PacketsPerPoint / 10 // the point is the collapse; cap runtime
			}
			v := legacyRun(e, gen, total, ratioEvents(ratio), sg)
			pts = append(pts, sim.Point{X: float64(ratio), Y: v})
		}
		r.Series = append(r.Series, sim.Series{Name: "Industrial#1", Points: pts})
	}
	r.Notes = append(r.Notes,
		"paper shape: PEPC ~7 Mpps at 1:10 and 2.6 Mpps at 1:1; Industrial#1 near 0 beyond 1:100",
		"PEPC signaling takes the batched control path (event ring, grouped drain)")
	return r, nil
}

// Fig7 regenerates Figure 7: aggregate data-plane throughput with the
// number of data cores. Each core is one lane: a share-nothing slice
// with its own population, generator and signaling source running the
// pepcRun closed loop to completion — the paper's one-data-thread-per-
// slice execution model. runLanes runs the first k lanes for the k-core
// point, concurrently or measure-and-sum per Scale.Lanes. Each point is
// its own median of three in both modes: a summed sweep re-measures
// lanes[:k] (30 lane runs, ~60ms each at quick scale, against seconds of
// population attach) rather than prefix-summing four rates, so Fig7 has
// one code path and a summed curve that rises was observed per point,
// not produced by addition.
func Fig7(sc Scale) (Result, error) {
	r := Result{
		Figure: "Figure 7",
		Title:  "Data plane performance with number of cores (aggregate)",
		XLabel: "data cores",
		YLabel: "aggregate Mpps",
	}
	const maxCores = 4
	totalUsers := sc.users(1_000_000) // paper: 10M across 4 cores
	perCore := totalUsers / maxCores
	lanes := make([]lane, maxCores)
	for i := range lanes {
		s := core.NewSlice(core.SliceConfig{ID: i + 1, UserHint: perCore})
		pop, err := attachPopulation(s, perCore, uint64(10_000_000*(i+1)))
		if err != nil {
			return r, err
		}
		gen := workload.NewTrafficGen(workload.TrafficConfig{CoreAddr: s.Config().CoreAddr}, pop)
		sg := workload.NewSignalingGen(workload.EventAttach, pop)
		pepcWarm(s, gen, sc.PacketsPerPoint)
		lanes[i] = func(quota int) (int, error) {
			return pepcLoop(s, gen, quota, 2, sg, false), nil
		}
	}
	series := sim.Series{Name: fmt.Sprintf("PEPC (%s users, 100K events)", sim.FormatQty(float64(totalUsers)))}
	for k := 1; k <= maxCores; k++ {
		v, err := median3(func() (float64, error) {
			gcNow()
			lr, err := runLanes(sc.Lanes, maxCores, sc.PacketsPerPoint, lanes[:k])
			series.Derived = lr.Derived
			return lr.Mpps, err
		})
		if err != nil {
			return r, err
		}
		series.Points = append(series.Points, sim.Point{X: float64(k), Y: v})
	}
	r.Series = []sim.Series{series}
	r.Notes = append(r.Notes, lanesNote(series.Derived), "paper shape: linear scaling to 14 Mpps at 4 cores")
	return r, nil
}
