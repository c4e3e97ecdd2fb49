package experiments

import (
	"strings"
	"testing"

	"pepc/internal/sim"
)

// micro keeps smoke tests fast while staying above the population where
// the paper's scale effects exist at all: below ~20K users every state
// table is cache-resident and the PEPC-vs-legacy gap compresses to
// noise (the gap IS a scale effect, §2.2). Shape assertions use relative
// comparisons only where the effect survives this downscaling.
var micro = Scale{
	MaxUsers:        50_000,
	PacketsPerPoint: 60_000,
	EventsPerPoint:  200,
}

// The shape assertions below are the paper's relative claims (who wins,
// which way a curve bends); they replace the per-figure absolute
// ratchets (EXPERIMENTS.md has the ratchet → successor table). Each is
// checked once per run against a margin set below the smallest value
// seen over 20 or more regenerations on the shared 2-CPU host these were
// written on; the comment on each test gives that spread. A margin is
// therefore a regression guard, not the size of the effect.

// yAt returns the series' value at x.
func yAt(t *testing.T, s sim.Series, x float64) float64 {
	t.Helper()
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("series %q has no point at x=%v: %v", s.Name, x, s.Points)
	return 0
}

// timingRatios reports whether a figure test asserts its timing ratios
// (who is faster, by how much). The race detector slows code paths
// unevenly — under it LatFig's injected-stall tail fell below 4x the
// baseline's p99 — so with -race the figures still run and their
// structural checks still hold, but the ratios are not asserted.
func timingRatios(t *testing.T) bool {
	t.Helper()
	if raceEnabled {
		t.Log("race detector on: timing-ratio assertions skipped")
	}
	return !raceEnabled
}

func seriesNonEmpty(t *testing.T, r Result) {
	t.Helper()
	checkSeries(t, r, false)
}

// seriesNonEmptySigned allows negative Y values (percent-improvement
// figures can legitimately dip below zero at smoke-test scales where the
// cache effects under study do not exist).
func seriesNonEmptySigned(t *testing.T, r Result) {
	t.Helper()
	checkSeries(t, r, true)
}

func checkSeries(t *testing.T, r Result, signed bool) {
	t.Helper()
	if len(r.Series) == 0 {
		t.Fatalf("%s: no series", r.Figure)
	}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %q empty", r.Figure, s.Name)
		}
		for _, p := range s.Points {
			if !signed && p.Y < 0 {
				t.Fatalf("%s %q: negative value %f", r.Figure, s.Name, p.Y)
			}
		}
	}
	if out := r.Render(); !strings.Contains(out, r.Figure) {
		t.Fatalf("render missing figure name: %s", out)
	}
}

func TestTable1Renders(t *testing.T) {
	r := Table1()
	if len(r.Notes) != 7 { // header + 6 rows
		t.Fatalf("table 1 rows = %d", len(r.Notes))
	}
	if !strings.Contains(r.Notes[6], "per-packet") {
		t.Fatalf("bandwidth counters row: %s", r.Notes[6])
	}
}

func TestTable2Renders(t *testing.T) {
	r := Table2()
	joined := strings.Join(r.Notes, "\n")
	for _, want := range []string{"1:3", "64 bytes", "128 bytes", "attach request", "100K", "1M"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, joined)
		}
	}
}

// TestFig4Smoke: PEPC against every baseline. The gap to the Industrial
// baselines is a cache-footprint effect that micro's 50K users remove:
// over 80 regenerations PEPC/Industrial#1 was 0.90-2.93x and
// PEPC/Industrial#2 0.63-1.71x, PEPC strictly ahead of both in four
// runs of five, and 400K packets per point did not narrow it. So at
// this scale the Industrial comparison only guards against PEPC
// falling to half a baseline's rate (asserted: 0.5x); the ordering
// itself is Fig 5's, at populations where it exists. Against the
// kernel-path baselines the gap is structural (7.6-22x observed;
// asserted: 3x).
func TestFig4Smoke(t *testing.T) {
	r, err := Fig4(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	if !timingRatios(t) {
		return
	}
	pepcRate := r.Series[0].Points[0].Y
	for _, s := range r.Series[1:] {
		margin := 3.0
		if strings.HasPrefix(s.Name, "Industrial") {
			margin = 0.5
		}
		if pepcRate < margin*s.Points[0].Y {
			t.Fatalf("PEPC (%.2f) < %.1fx %s (%.2f)", pepcRate, margin, s.Name, s.Points[0].Y)
		}
	}
}

// TestFig5Smoke succeeds the BENCH_fig5 ratchet's shape: PEPC above
// Industrial#1 at every swept population (observed PEPC/Industrial#1 at
// the worst of the four populations 1.20-2.20x over 20 regenerations;
// asserted: strictly above), and not behind the two Industrial#2
// reference points, which carry no signaling and which micro caps to
// 50K users, where there is no scale gap to show (observed 0.84-1.77x,
// and 0.63x for the same pair in Fig 4; asserted: 0.5x).
func TestFig5Smoke(t *testing.T) {
	r, err := Fig5(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	pepc, ind1, ind2 := r.Series[0], r.Series[1], r.Series[2]
	if pepc.Name != "PEPC" || ind1.Name != "Industrial#1" || ind2.Name != "Industrial#2" {
		t.Fatalf("series order changed: %q %q %q", pepc.Name, ind1.Name, ind2.Name)
	}
	if len(pepc.Points) != 4 || len(ind1.Points) != 4 {
		t.Fatalf("populations swept: PEPC %d, Industrial#1 %d, want 4", len(pepc.Points), len(ind1.Points))
	}
	if !timingRatios(t) {
		return
	}
	for _, p := range ind1.Points {
		if v := yAt(t, pepc, p.X); v <= p.Y {
			t.Errorf("Industrial#1 (%.2f) >= PEPC (%.2f) at %s users", p.Y, v, sim.FormatQty(p.X))
		}
	}
	for _, p := range ind2.Points {
		if v := yAt(t, pepc, p.X); v < 0.5*p.Y {
			t.Errorf("PEPC (%.2f) < 0.5x Industrial#2 (%.2f) at %s users", v, p.Y, sim.FormatQty(p.X))
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	r, err := Fig6(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	first, last := r.Series[0], r.Series[len(r.Series)-1] // last: Industrial#1
	if !strings.Contains(last.Name, "Industrial") {
		t.Fatalf("series order changed: %s", last.Name)
	}
	if !timingRatios(t) {
		return
	}
	// PEPC throughput must fall as the signaling ratio rises toward 1:1
	// and remain above Industrial#1 at 1:1.
	if first.Points[0].Y <= first.Points[len(first.Points)-1].Y {
		t.Fatalf("PEPC did not degrade with signaling: %v", first.Points)
	}
	if last.Points[len(last.Points)-1].Y >= first.Points[len(first.Points)-1].Y {
		t.Fatal("Industrial#1 not worse than PEPC at 1:1")
	}
}

// TestFig7Smoke succeeds the BENCH_fig7 ratchet: in measure-and-sum
// mode (the mode this host's auto picks, pinned so the margins mean the
// same thing everywhere) the aggregate rises with every added core and
// four lanes carry at least 2.5x one — the paper's claim is linear, 4x.
// Lanes run 300K packets each: at micro's 60K a lane run is 20ms and
// the ratio spread 2.55-4.81x over 20 regenerations; at 300K it was
// 3.39-4.63x, and the smallest step between adjacent points 1.09x.
func TestFig7Smoke(t *testing.T) {
	sc := micro
	sc.PacketsPerPoint = 300_000
	sc.Lanes = "sum"
	r, err := Fig7(sc)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	pts := r.Series[0].Points
	if len(pts) != 4 {
		t.Fatalf("cores points = %d", len(pts))
	}
	if !r.Series[0].Derived || !strings.Contains(r.Render(), "derived (measure-and-sum)") {
		t.Fatalf("summed series not labelled derived:\n%s", r.Render())
	}
	if !timingRatios(t) {
		return
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y <= pts[i-1].Y {
			t.Fatalf("aggregate not increasing: %v", pts)
		}
	}
	if pts[3].Y < 2.5*pts[0].Y {
		t.Fatalf("4-core aggregate %.2f < 2.5x 1-core %.2f", pts[3].Y, pts[0].Y)
	}
}

// TestFig7ParallelSmoke runs a real figure with its lanes concurrent.
// On a host with fewer CPUs than lanes that measures oversubscription,
// so nothing about the rates is asserted beyond their existence; the
// point is that an observed series is not labelled derived.
func TestFig7ParallelSmoke(t *testing.T) {
	sc := micro
	sc.Lanes = "parallel"
	r, err := Fig7(sc)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	if r.Series[0].Derived || strings.Contains(r.Render(), "derived (measure-and-sum)") {
		t.Fatalf("concurrently measured series labelled derived:\n%s", r.Render())
	}
	for _, p := range r.Series[0].Points {
		if p.Y <= 0 {
			t.Fatalf("no rate at %v cores: %v", p.X, r.Series[0].Points)
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	r, err := Fig8(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	if !timingRatios(t) {
		return
	}
	pts := r.Series[0].Points
	// Throughput at the highest migration rate must be below baseline.
	if pts[len(pts)-1].Y >= pts[0].Y {
		t.Fatalf("migrations did not cost throughput: %v", pts)
	}
}

func TestFig9Smoke(t *testing.T) {
	r, err := Fig9(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	if len(r.Series) != 3 {
		t.Fatalf("latency series = %d", len(r.Series))
	}
}

func TestFig10Smoke(t *testing.T) {
	r, err := Fig10(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	// More signaling (smaller 1:N) must never need fewer cores.
	pts := r.Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X && pts[i].Y < pts[i-1].Y {
			t.Fatalf("cores decreased with more signaling: %v", pts)
		}
	}
	// Lightest ratio needs exactly 1 data + 1 control core.
	if pts[0].Y != 2 {
		t.Fatalf("1:10000 needs %v cores, want 2", pts[0].Y)
	}
}

func TestFig11Smoke(t *testing.T) {
	r, err := Fig11(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	pts := r.Series[0].Points
	if len(pts) != 8 || pts[7].Y <= pts[0].Y {
		t.Fatalf("control scaling: %v", pts)
	}
}

func TestFig12Smoke(t *testing.T) {
	r, err := Fig12(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
}

func TestFig13Smoke(t *testing.T) {
	r, err := Fig13(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := Names()
	if len(names) != 18 { // 2 tables + 11 figures + faults + sockio + cluster + lat + pfcp
		t.Fatalf("experiments = %d: %v", len(names), names)
	}
	if names[0] != "table1" || names[2] != "lat" || names[3] != "fig4" {
		t.Fatalf("ordering: %v", names)
	}
	if _, err := Run("fig99", Quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Tables run instantly at any scale.
	r, err := Run("table1", Quick)
	if err != nil || r.Figure != "Table 1" {
		t.Fatalf("table1: %+v %v", r.Figure, err)
	}
}

func TestFig15Smoke(t *testing.T) {
	r, err := Fig15(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmptySigned(t, r)
}

func TestRatioEvents(t *testing.T) {
	if ratioEvents(0) != 0 || ratioEvents(-1) != 0 {
		t.Fatal("zero ratio must emit no events")
	}
	if ratioEvents(1000) != 1 || ratioEvents(1) != 1000 || ratioEvents(10) != 100 {
		t.Fatal("ratio conversion wrong")
	}
	if ratioEvents(10000) != 1 {
		t.Fatal("sub-1 event rates must clamp to 1 per 1000")
	}
}

// TestClusterSmoke succeeds the BENCH_cluster ratchet: in measure-and-sum
// mode (pinned, as in TestFig7Smoke) four node lanes out-aggregate one,
// and only the aggregate series is labelled derived. The 4-node/1-node
// ratio was 2.33-4.58x over 40 regenerations (2.51-4.59x with 300K
// packets per point, so longer lanes do not narrow it); asserted: 2x.
func TestClusterSmoke(t *testing.T) {
	sc := micro
	sc.Lanes = "sum"
	r, err := ClusterFig(sc)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	if len(r.Series) != 3 {
		t.Fatalf("series = %d, want aggregate + rebalance + recovery", len(r.Series))
	}
	if !r.Series[0].Derived || r.Series[1].Derived || r.Series[2].Derived {
		t.Fatal("want exactly the summed aggregate series marked derived")
	}
	agg := r.Series[0].Points
	if len(agg) != 3 {
		t.Fatalf("node-count points = %d", len(agg))
	}
	// One membership change moves a bounded fraction of the population
	// (Maglev remap bound; the experiment itself errors past the bound,
	// this guards gross regressions).
	for _, p := range r.Series[1].Points {
		if p.Y <= 0 || p.Y > 60 {
			t.Fatalf("rebalance moved %.1f%% of users", p.Y)
		}
	}
	if !timingRatios(t) {
		return
	}
	if agg[2].Y < 2*agg[0].Y {
		t.Fatalf("4-node aggregate %.2f < 2x 1-node %.2f", agg[2].Y, agg[0].Y)
	}
}

// TestLatFigSmoke succeeds the BENCH_lat ratchet's shape: every scenario
// produces a populated, ordered distribution (p50 ≤ p99 ≤ p99.9), and
// each interference source lands in the quantile the design says it
// must, relative to the baseline. Over 150 regenerations:
//
//   - Injected worker stalls own the p99.9: the faults scenario's p99.9
//     was 57-1180µs, 12.9-590x the baseline's p99 of 1.5-6.4µs
//     (asserted: 4x), while its p50 stayed at 0.62-2.1x the baseline's.
//     The yardstick is the baseline's p99 because its p99.9 at this
//     scale is its two slowest batches: one host preemption moves it
//     from 2.4 to 70µs, and faults-p99.9/baseline-p99.9 came out
//     0.58-97x, below 1 in 2 of the 150.
//   - Migration buffering owns the p50: 2.0-4.6x the baseline's
//     (asserted: 1.5x) and 1.9-4.4x the largest of the other four
//     (asserted: the largest).
func TestLatFigSmoke(t *testing.T) {
	const baseline, faults, migration = 0, 2, 4
	r, err := LatFig(micro)
	if err != nil {
		t.Fatal(err)
	}
	seriesNonEmpty(t, r)
	if len(r.Series) != 3 {
		t.Fatalf("quantile series = %d, want p50/p99/p99.9", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) != 5 {
			t.Fatalf("series %q scenarios = %d, want 5", s.Name, len(s.Points))
		}
	}
	p50, p99, p999 := r.Series[0].Points, r.Series[1].Points, r.Series[2].Points
	for i := range p50 {
		if p50[i].Y <= 0 {
			t.Fatalf("scenario %d: p50 = %f, want > 0", i+1, p50[i].Y)
		}
		if p99[i].Y < p50[i].Y || p999[i].Y < p99[i].Y {
			t.Fatalf("scenario %d: quantiles not ordered: p50=%f p99=%f p99.9=%f",
				i+1, p50[i].Y, p99[i].Y, p999[i].Y)
		}
	}
	if !timingRatios(t) {
		return
	}
	if p999[faults].Y < 4*p99[baseline].Y {
		t.Errorf("faults p99.9 %.1fµs < 4x baseline p99 %.1fµs", p999[faults].Y, p99[baseline].Y)
	}
	if p50[migration].Y < 1.5*p50[baseline].Y {
		t.Errorf("migration-burst p50 %.2fµs < 1.5x baseline %.2fµs", p50[migration].Y, p50[baseline].Y)
	}
	for i := range p50 {
		if i != migration && p50[i].Y >= p50[migration].Y {
			t.Errorf("scenario %d p50 %.2fµs >= migration-burst %.2fµs", i+1, p50[i].Y, p50[migration].Y)
		}
	}
}
