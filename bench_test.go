// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkFigN_/BenchmarkTableN_ target runs the
// corresponding experiment once per iteration at the Quick scale and
// reports the headline values as custom metrics, so
//
//	go test -bench=Fig5 -benchtime=1x
//
// regenerates Figure 5's series. cmd/pepcbench prints the same results
// as readable tables, at Quick or Full scale.
package pepc_test

import (
	"strings"
	"testing"

	"pepc"
	"pepc/internal/experiments"
)

// benchScale trims Quick further so a default `go test -bench=.` pass
// over all figures completes in minutes.
var benchScale = experiments.Scale{
	MaxUsers:        100_000,
	PacketsPerPoint: 100_000,
	EventsPerPoint:  1_000,
}

// runFigure executes an experiment b.N times and publishes each series'
// headline point (the last X) as a custom metric.
func runFigure(b *testing.B, name string) {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(name, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		metric := sanitizeMetric(s.Name) + "_" + res.YLabel
		b.ReportMetric(last.Y, sanitizeMetric(metric))
	}
	if testing.Verbose() {
		b.Log("\n" + res.Render())
	}
}

func sanitizeMetric(s string) string {
	r := strings.NewReplacer(" ", "_", "(", "", ")", "", "#", "", "%", "pct", "/", "_per_", ":", "_")
	return r.Replace(s)
}

func BenchmarkTable1_StateTaxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("table1", benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Notes) != 7 {
			b.Fatal("taxonomy rows missing")
		}
	}
}

func BenchmarkTable2_DefaultParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("table2", benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_DataPlaneComparison(b *testing.B)       { runFigure(b, "fig4") }
func BenchmarkFig5_ThroughputVsUsers(b *testing.B)         { runFigure(b, "fig5") }
func BenchmarkFig6_ThroughputVsSignaling(b *testing.B)     { runFigure(b, "fig6") }
func BenchmarkFig7_ScalingWithDataCores(b *testing.B)      { runFigure(b, "fig7") }
func BenchmarkFig8_MigrationThroughput(b *testing.B)       { runFigure(b, "fig8") }
func BenchmarkFig9_MigrationLatency(b *testing.B)          { runFigure(b, "fig9") }
func BenchmarkFig10_CoresVsSignalingRatio(b *testing.B)    { runFigure(b, "fig10") }
func BenchmarkFig11_AttachRateVsControlCores(b *testing.B) { runFigure(b, "fig11") }
func BenchmarkFig12_SharedStateDesigns(b *testing.B)       { runFigure(b, "fig12") }
func BenchmarkFig13_UpdateBatching(b *testing.B)           { runFigure(b, "fig13") }
func BenchmarkFig15_IoTCustomization(b *testing.B)         { runFigure(b, "fig15") }

// BenchmarkPipelineUplink measures the PEPC uplink fast path per packet:
// decap, lookup, classify, counters, forward. This is the per-core
// per-packet budget behind every throughput figure.
func BenchmarkPipelineUplink(b *testing.B) {
	s := pepc.NewSlice(pepc.SliceConfig{ID: 1, UserHint: 1 << 16})
	users := make([]pepc.User, 1<<14)
	for i := range users {
		res, err := s.Control().Attach(pepc.AttachSpec{
			IMSI: uint64(i + 1), ENBAddr: 1, DownlinkTEID: uint32(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		users[i] = pepc.User{IMSI: uint64(i + 1), UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr}
	}
	s.Data().SyncUpdates()
	gen := pepc.NewTrafficGen(pepc.TrafficConfig{CoreAddr: s.Config().CoreAddr}, users)
	batch := make([]*pepc.Buf, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch[0] = gen.NextUplink()
		s.Data().ProcessUplinkBatch(batch, 0)
		drainOne(s)
	}
}

func drainOne(s *pepc.Slice) {
	for {
		buf, ok := s.Egress.Dequeue()
		if !ok {
			return
		}
		buf.Free()
	}
}

// newPipelineBench attaches a population and returns the slice plus a
// generator emitting burst consecutive packets per user (burst=1 is the
// fully interleaved worst case; burst>=4 models per-user flow runs).
func newPipelineBench(b *testing.B, burst int) (*pepc.Slice, *pepc.TrafficGen) {
	b.Helper()
	s := pepc.NewSlice(pepc.SliceConfig{ID: 1, UserHint: 1 << 16})
	users := make([]pepc.User, 1<<14)
	for i := range users {
		res, err := s.Control().Attach(pepc.AttachSpec{
			IMSI: uint64(i + 1), ENBAddr: 1, DownlinkTEID: uint32(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		users[i] = pepc.User{IMSI: uint64(i + 1), UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr}
	}
	s.Data().SyncUpdates()
	gen := pepc.NewTrafficGen(pepc.TrafficConfig{CoreAddr: s.Config().CoreAddr, Burst: burst}, users)
	return s, gen
}

// benchUplinkBatch measures the uplink fast path over full 32-packet
// batches (ns/op is per packet).
func benchUplinkBatch(b *testing.B, burst int) {
	s, gen := newPipelineBench(b, burst)
	const batchSize = 32
	batch := make([]*pepc.Buf, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = gen.NextUplink()
		}
		s.Data().ProcessUplinkBatch(batch, 0)
		drainOne(s)
	}
}

// benchDownlinkBatch measures the downlink fast path over full 32-packet
// batches (ns/op is per packet).
func benchDownlinkBatch(b *testing.B, burst int) {
	s, gen := newPipelineBench(b, burst)
	const batchSize = 32
	batch := make([]*pepc.Buf, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = gen.NextDownlink()
		}
		s.Data().ProcessDownlinkBatch(batch, 0)
		drainOne(s)
	}
}

// Uniform: every packet in a batch belongs to a different user (run
// length 1, coalescing finds nothing to merge).
func BenchmarkPipelineUplinkBatch32(b *testing.B)   { benchUplinkBatch(b, 1) }
func BenchmarkPipelineDownlinkBatch32(b *testing.B) { benchDownlinkBatch(b, 1) }

// Bursty: eight consecutive packets per user (run length 8), the
// flow-run pattern coalescing exploits.
func BenchmarkPipelineUplinkBursty(b *testing.B)   { benchUplinkBatch(b, 8) }
func BenchmarkPipelineDownlinkBursty(b *testing.B) { benchDownlinkBatch(b, 8) }
