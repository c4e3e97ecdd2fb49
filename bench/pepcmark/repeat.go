package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"pepc/internal/sockio"
)

// fingerprint says where a result was measured, so results from
// different hosts or commits are never compared by accident.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	Batched    bool   `json:"sockio_batched"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func hostFingerprint(e env) fingerprint {
	fp := fingerprint{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Batched: sockio.Batched(), Commit: "unknown", Seed: e.seed, Seconds: int(e.dur.Seconds())}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s kernel=%s sockio.Batched=%v commit=%s seed=%d seconds=%d; all traffic on loopback",
		fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.Batched, fp.Commit, fp.Seed, fp.Seconds)
}

// summaryRow is one (metric, workload) pair over the runs of a set.
type summaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"` // end-to-end metrics only
	Median   float64   `json:"median"`
	IQR      float64   `json:"iqr"`
	Values   []float64 `json:"values"`
}

// spread is the set's run-to-run spread as a share of its median.
func (r summaryRow) spread() float64 {
	if r.Median == 0 {
		return 0
	}
	return r.IQR / r.Median
}

// runSet is the suite run N times over: every workload untraced and
// traced per repetition, with the per-pair summary. The summary holds
// every run's value of every metric and is what -json writes; the runs'
// notes are printed as they are made.
type runSet struct {
	Host    fingerprint  `json:"host"`
	Correct bool         `json:"correct"`
	Summary []summaryRow `json:"summary"`
	runs    []*result
}

// write stores the set as JSON, one summary row per line.
func (s *runSet) write(path string) error {
	host, err := json.Marshal(s.Host)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"host\":%s,\n\"correct\":%v,\n\"summary\":[", host, s.Correct)
	for i, r := range s.Summary {
		row, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
		b.Write(row)
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// runSuite runs every workload n times, untraced then traced, printing
// each run, then prints the set's summary.
func runSuite(e env, n int) (*runSet, error) {
	set := &runSet{Host: hostFingerprint(e), Correct: true}
	fmt.Println(set.Host)
	for rep := 0; rep < n; rep++ {
		for _, w := range workloadNames {
			for _, trace := range []bool{false, true} {
				res, err := runWorkload(e, w, trace)
				if err != nil {
					return nil, err
				}
				res.print()
				set.runs = append(set.runs, res)
				set.Correct = set.Correct && res.Correct
			}
		}
	}
	set.summarise()
	set.printSummary()
	return set, nil
}

func (s *runSet) summarise() {
	for _, w := range workloadNames {
		for _, decls := range [][]metricDecl{endToEnd, layerMetrics} {
			for _, d := range decls {
				row := summaryRow{Workload: w, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
				for _, r := range s.runs {
					if m, ok := r.Metrics[d.Name]; ok && r.Workload == w {
						row.Values = append(row.Values, m.Value)
					}
				}
				row.Median, row.IQR = median(row.Values), iqr(row.Values)
				if row.Bound > 0 || row.Median != 0 || row.IQR != 0 { // not a layer the workload idles
					s.Summary = append(s.Summary, row)
				}
			}
		}
	}
}

func (s *runSet) printSummary() {
	runs := len(s.runs) / (2 * len(workloadNames))
	fmt.Printf("== set of %d run(s): median, IQR across runs, spread ÷ bound (end-to-end only)\n", runs)
	for _, r := range s.Summary {
		if r.Bound > 0 {
			fmt.Printf("  %-14s %-28s %14.6g %-8s IQR %-12.4g spread/bound %.2f\n",
				r.Workload, r.Metric, r.Median, r.Unit, r.IQR, r.spread()/r.Bound)
		} else {
			fmt.Printf("  %-14s %-28s %14.6g %-8s IQR %-12.4g\n", r.Workload, r.Metric, r.Median, r.Unit, r.IQR)
		}
	}
	var fwd, mix float64
	for _, r := range s.Summary {
		if r.Metric == "ops_per_s" && r.Workload == "inmem-forward" {
			fwd = r.Median
		}
		if r.Metric == "ops_per_s" && r.Workload == "inmem-mixed" {
			mix = r.Median
		}
	}
	if fwd > 0 {
		fmt.Printf("  retention under signaling: ops_per_s(inmem-mixed) ÷ ops_per_s(inmem-forward) = %.0f ÷ %.0f = %.3f\n", mix, fwd, mix/fwd)
	}
}

// compareSets checks set B against set A on every end-to-end (metric,
// workload) pair with the metric's bound: a pair is a REGRESSION when
// B's median is worse than A's by more than the bound, unresolved when
// either set's own spread exceeds the bound, ok otherwise. It returns
// the process exit code: 0 only when every pair is ok.
func compareSets(pathA, pathB string) int {
	load := func(path string) (*runSet, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s runSet
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	a, err := load(pathA)
	if err != nil {
		return failed(err)
	}
	b, err := load(pathB)
	if err != nil {
		return failed(err)
	}
	fmt.Printf("A %s\nB %s\n", a.Host, b.Host)
	rowsB := map[string]summaryRow{}
	for _, r := range b.Summary {
		rowsB[r.Workload+"/"+r.Metric] = r
	}
	code := 0
	for _, ra := range a.Summary {
		if ra.Bound == 0 {
			continue
		}
		rb, ok := rowsB[ra.Workload+"/"+ra.Metric]
		if !ok || len(ra.Values) == 0 || len(rb.Values) == 0 || ra.Median == 0 {
			fmt.Printf("  %-14s %-16s MISSING in one set\n", ra.Workload, ra.Metric)
			code = 1
			continue
		}
		worse := (rb.Median - ra.Median) / ra.Median
		if ra.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		switch {
		case ra.spread() > ra.Bound || rb.spread() > ra.Bound:
			verdict, code = "unresolved (spread > bound)", 1
		case worse > ra.Bound:
			verdict, code = "REGRESSION", 1
		}
		fmt.Printf("  %-14s %-16s A %-12.6g B %-12.6g %-5s worse by %+.3f (bound %.2f, spread A %.3f B %.3f) %s\n",
			ra.Workload, ra.Metric, ra.Median, rb.Median, ra.Unit, worse, ra.Bound, ra.spread(), rb.spread(), verdict)
	}
	return code
}
