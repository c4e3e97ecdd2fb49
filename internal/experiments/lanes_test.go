package experiments

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pepc/internal/sim"
)

// fakeLanes returns n lanes that each complete their quota after a short
// sleep, counting their calls.
func fakeLanes(n int, calls *atomic.Int32) []lane {
	lanes := make([]lane, n)
	for i := range lanes {
		lanes[i] = func(quota int) (int, error) {
			calls.Add(1)
			time.Sleep(time.Millisecond)
			return quota, nil
		}
	}
	return lanes
}

func TestRunLanesModesAccountTheSamePackets(t *testing.T) {
	var calls atomic.Int32
	par, err := runLanes("parallel", 1, 1000, fakeLanes(4, &calls))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runLanes("sum", 1, 1000, fakeLanes(4, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if par.Packets != 4000 || sum.Packets != 4000 || calls.Load() != 8 {
		t.Fatalf("packets parallel=%d sum=%d (want 4000 each), calls=%d (want 8)", par.Packets, sum.Packets, calls.Load())
	}
	if par.Derived || !sum.Derived {
		t.Fatalf("Derived: parallel=%v sum=%v, want false/true", par.Derived, sum.Derived)
	}
	if par.Mpps <= 0 || sum.Mpps <= 0 {
		t.Fatalf("rates parallel=%f sum=%f", par.Mpps, sum.Mpps)
	}
	// Sleeping lanes overlap when run concurrently (four finish in about
	// one lane's time) and are clocked alone when summed, so both modes
	// report about four lanes' worth of rate.
	if ratio := par.Mpps / sum.Mpps; ratio < 0.25 || ratio > 4 {
		t.Fatalf("parallel %.3f vs sum %.3f Mpps disagree by %.1fx on identical lanes", par.Mpps, sum.Mpps, ratio)
	}
}

func TestRunLanesAutoFollowsGOMAXPROCS(t *testing.T) {
	var calls atomic.Int32
	procs := runtime.GOMAXPROCS(0)
	fits, err := runLanes("auto", procs, 10, fakeLanes(2, &calls))
	if err != nil || fits.Derived {
		t.Fatalf("auto with procs=GOMAXPROCS: derived=%v err=%v, want parallel", fits.Derived, err)
	}
	for _, mode := range []string{"auto", ""} {
		over, err := runLanes(mode, procs+1, 10, fakeLanes(2, &calls))
		if err != nil || !over.Derived {
			t.Fatalf("mode %q with procs=GOMAXPROCS+1: derived=%v err=%v, want sum", mode, over.Derived, err)
		}
	}
	if _, err := runLanes("both", 1, 10, fakeLanes(1, &calls)); err == nil || !strings.Contains(err.Error(), `"both"`) {
		t.Fatalf("unknown mode: err=%v", err)
	}
}

func TestRunLanesStopsOnLaneError(t *testing.T) {
	boom := errors.New("lane 1 lost its socket")
	for _, mode := range []string{"sum", "parallel"} {
		var after atomic.Int32
		lanes := []lane{
			func(q int) (int, error) { return q, nil },
			func(q int) (int, error) { return q / 2, boom },
			func(q int) (int, error) { after.Add(1); return q, nil },
		}
		r, err := runLanes(mode, 1, 100, lanes)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err=%v, want the lane's error", mode, err)
		}
		if r != (laneRate{}) {
			t.Fatalf("%s: reported %+v from a failed run", mode, r)
		}
		// Measure-and-sum runs lanes in order, so nothing starts after
		// the failure; concurrent lanes have all started by then.
		if mode == "sum" && after.Load() != 0 {
			t.Fatalf("sum: lane after the failed one still ran")
		}
	}
}

func TestRenderMarksDerivedSeries(t *testing.T) {
	pts := []sim.Point{{X: 1, Y: 2}}
	r := Result{Figure: "F", Title: "t", XLabel: "x", YLabel: "y", Series: []sim.Series{
		{Name: "measured", Points: pts},
		{Name: "summed", Points: pts, Derived: true},
	}}
	out := r.Render()
	if !strings.Contains(out, `derived (measure-and-sum): "summed"`) || strings.Contains(out, `"measured"`) {
		t.Fatalf("derived marker wrong:\n%s", out)
	}
}
