package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// lane drives quota packets through one share-nothing unit of a
// multi-lane measurement (a Fig 7 shard, a sockio queue, a cluster node)
// and returns how many completed. Callers warm their lanes before
// handing them to runLanes.
type lane func(quota int) (int, error)

// laneRate is what runLanes measured: the aggregate rate, the packets it
// accounts for, and whether the rate was observed or derived.
type laneRate struct {
	Mpps    float64
	Packets int
	// Derived marks a measure-and-sum number: every lane ran alone and
	// the rates were added — the paper's own linearity argument for
	// share-nothing shards, and the only honest option when the host
	// cannot run the lanes concurrently. False means every lane ran
	// concurrently and Mpps is total packets over the shared wall clock.
	Derived bool
}

// runLanes is the one place the harness decides between running lanes
// concurrently and measure-and-sum. mode is Scale.Lanes: "parallel" and
// "sum" force the choice, ""/"auto" runs parallel only when GOMAXPROCS
// covers procs, the goroutines the widest point of the sweep needs — so
// one sweep never mixes observed and derived points. A lane error stops
// the run (no further lane starts) and is returned.
func runLanes(mode string, procs, quota int, lanes []lane) (laneRate, error) {
	var r laneRate
	switch mode {
	case "parallel":
	case "sum":
		r.Derived = true
	case "", "auto":
		r.Derived = runtime.GOMAXPROCS(0) < procs
	default:
		return r, fmt.Errorf("experiments: lanes mode %q (want auto, parallel or sum)", mode)
	}
	if r.Derived {
		for _, l := range lanes {
			start := time.Now()
			n, err := l(quota)
			if err != nil {
				return laneRate{}, err
			}
			r.Packets += n
			r.Mpps += mpps(n, time.Since(start))
		}
		return r, nil
	}
	counts := make([]int, len(lanes))
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i], errs[i] = l(quota)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return laneRate{}, err
		}
		r.Packets += counts[i]
	}
	r.Mpps = mpps(r.Packets, elapsed)
	return r, nil
}

// lanesNote is the Result note a multi-lane figure attaches for the mode
// its lanes ran in.
func lanesNote(derived bool) string {
	if derived {
		return fmt.Sprintf("lanes: share-nothing lanes measured one at a time and summed (GOMAXPROCS=%d cannot host them concurrently, or -lanes sum)", runtime.GOMAXPROCS(0))
	}
	return fmt.Sprintf("lanes: every lane ran concurrently, rate is total packets over the shared wall clock (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
}
