// Command pepcmark is the repository's benchmark: four workloads, three
// end-to-end metrics a user of the packet core would see, and the
// per-layer metrics that say where an end-to-end change came from.
//
//	go run ./bench/pepcmark -workload all -seed 1 -json out.json
//	go run ./bench/pepcmark -workload wire-forward -seed 3 -trace 1
//	go run ./bench/pepcmark -repeat 3 -json set-a.json
//	go run ./bench/pepcmark -compare set-a.json set-b.json
//
// A single-workload run prints every metric by name with its unit and
// ends with one JSON line (correct, attempted, failed, metrics): the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// BENCHMARK.json at the repository root declares the names; README.md
// beside this file is the glossary. All wire traffic crosses the host
// loopback, never a real link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// scale sizes a run. fullScale is what BENCHMARK.json's numbers are
// measured at; the smoke test shrinks it.
type scale struct {
	Users   int // inmem population
	Churn   int // of which: detached and re-attached, never sent traffic
	WireUEs int // UEs attached over S1AP for wire-forward
	// WireInstances is how many pepcd processes an untraced wire-forward
	// run measures in turn (runWire says why).
	WireInstances int
	SigRate       float64       // inmem-mixed signaling events/s, open loop
	WireRate      float64       // wire-forward phase B packets/s, open loop
	Warm          time.Duration // untimed warm-up before a timed phase
	Window        time.Duration // width of the windows a timed phase is cut into
	// SetupTime is how long an untraced run goes on repeating its set-up;
	// setup_s is the median of the repetitions, so a set-up of milliseconds
	// is timed hundreds of times and one of seconds a few times.
	SetupTime time.Duration
	// MinSamples is the fewest latency samples a window may hold for its
	// p99 to be reported (≥10 beyond it).
	MinSamples int
	// ProbeChunk is how long one of a layer probe's five timed chunks runs.
	ProbeChunk time.Duration
}

// wireOpenRate is wire-forward's phase-B offered load in packets/s,
// frozen here so the open-loop latency is read at the same load on every
// later commit: about 30 % of the phase-A (closed-loop) rate the seed
// commit sustains on the reference 2-CPU host.
const wireOpenRate = 10_000

var fullScale = scale{
	Users: 250_000, Churn: 10_000, WireUEs: 1000, WireInstances: 3,
	SigRate: 20_000, WireRate: wireOpenRate,
	Warm: 2 * time.Second, Window: 500 * time.Millisecond, SetupTime: 5 * time.Second,
	MinSamples: 1000, ProbeChunk: 20 * time.Millisecond,
}

// workloadNames are fixed: later issues cite them.
var workloadNames = []string{"inmem-forward", "inmem-mixed", "wire-forward", "n4-churn"}

// env is what every workload run is given.
type env struct {
	sc     scale
	seed   uint64
	dur    time.Duration // the timed part of the run
	outDir string        // where trace-<workload>.json goes
	pepcd  string        // the pepcd binary the child-process workloads start (buildPepcd)
	procs  *procSet      // child processes to stop if the run is cut short
}

// result is one run of one workload, untraced or traced.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	Digest    string            `json:"input_digest"`
}

func (r *result) set(name string, m metric) { r.Metrics[name] = m }

func (r *result) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// fail marks the run's outputs wrong and says why.
func (r *result) fail(format string, a ...any) {
	r.Correct = false
	r.note("CHECK FAILED: "+format, a...)
}

// runWorkload runs one workload once. The untraced run yields every
// end-to-end metric, the traced run every per-layer metric.
func runWorkload(e env, name string, trace bool) (*result, error) {
	res := &result{Workload: name, Trace: trace, Correct: true, Metrics: map[string]metric{},
		Digest: fmt.Sprintf("%016x", inputDigest(name, e.seed, e.sc))}
	if trace {
		for _, d := range layerMetrics { // a layer the workload idles reports 0
			res.set(d.Name, metric{Unit: d.Unit})
		}
	}
	var err error
	switch name {
	case "inmem-forward":
		err = runInmem(e, res, false)
	case "inmem-mixed":
		err = runInmem(e, res, true)
	case "wire-forward":
		err = runWire(e, res)
	case "n4-churn":
		err = runN4(e, res)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: nothing attempted", name)
	}
	return res, nil
}

// print writes the run's metrics by name with unit, sample count and
// the IQR across windows, then its notes.
func (r *result) print() {
	kind := "end-to-end, untraced"
	if r.Trace {
		kind = "per-layer, traced"
	}
	fmt.Printf("== %s (%s; loopback only, no real link) inputs %s\n", r.Workload, kind, r.Digest)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  (n=%d, window IQR %.4g)", m.N, m.IQR)
		}
		fmt.Printf("  %-28s %14.6g %-8s%s\n", n, m.Value, m.Unit, extra)
	}
	share := float64(r.Failed) / float64(r.Attempted)
	fmt.Printf("  %-28s %14.6g %-8s  (%d failed of %d attempted)\n", "fail_share", share, "fraction", r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// contractLine is the last line a single-workload run prints.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for n, m := range r.Metrics {
		out.Metrics[n] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

func main() { os.Exit(run()) }

// run is main with an exit code, so its deferred clean-up happens.
func run() int {
	workload := flag.String("workload", "all", "workload to run: all, or one of inmem-forward, inmem-mixed, wire-forward, n4-churn")
	seed := flag.Uint64("seed", 1, "seed of every input generator")
	seconds := flag.Int("seconds", 22, "timed seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics, writes trace-<workload>.json); with -workload all both runs are made")
	jsonOut := flag.String("json", "", "with -workload all or -repeat: write the set of results here")
	repeat := flag.Int("repeat", 0, "run the whole suite N times as one set and print each metric's median, IQR and spread ÷ bound")
	compare := flag.Bool("compare", false, "compare two sets written with -json (args: a.json b.json) against BENCHMARK.json's bounds")
	outDir := flag.String("out", ".", "directory for trace-<workload>.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return failed(fmt.Errorf("-compare needs two set files"))
		}
		return compareSets(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		return failed(fmt.Errorf("-seconds must be at least 1"))
	}
	e := env{sc: fullScale, seed: *seed, dur: time.Duration(*seconds) * time.Second, outDir: *outDir, procs: newProcSet()}
	suite := *repeat > 0 || *workload == "all"
	cleanup := func() {}
	if suite || *workload == "wire-forward" || *workload == "n4-churn" {
		var err error
		if e.pepcd, cleanup, err = buildPepcd(); err != nil {
			return failed(err)
		}
	}
	defer cleanup()
	// A signal must not orphan a pepcd child: stop and reap them first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.procs.stopAll()
		cleanup()
		os.Exit(130)
	}()
	if suite {
		set, err := runSuite(e, max(*repeat, 1))
		if err != nil {
			return failed(err)
		}
		if *jsonOut != "" {
			if err := set.write(*jsonOut); err != nil {
				return failed(err)
			}
		}
		if !set.Correct {
			return 1
		}
		return 0
	}
	fmt.Println(hostFingerprint(e))
	res, err := runWorkload(e, *workload, *trace == 1)
	if err != nil {
		return failed(err)
	}
	res.print()
	fmt.Println(res.contractLine())
	if !res.Correct {
		return 1
	}
	return 0
}

// failed reports an error that kept a run from producing a result and
// returns the exit code for it.
func failed(err error) int {
	fmt.Fprintln(os.Stderr, "pepcmark:", err)
	return 2
}
