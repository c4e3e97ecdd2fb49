package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// microScale runs every workload in well under a second: enough to
// exercise every code path and output check, not to measure anything.
var microScale = scale{
	Users: 2000, Churn: 200, WireUEs: 32, WireInstances: 1,
	SigRate: 20_000, WireRate: 5_000,
	Warm: 50 * time.Millisecond, Window: 100 * time.Millisecond, // SetupTime 0: one set-up
	MinSamples: 1, ProbeChunk: 500 * time.Microsecond,
}

// benchmarkFile mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the declarations
// the runs emit from drifting apart, and holds the file to the limits a
// benchmark description must stay within.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, code runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, code has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2–8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1–16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1–128", n)
	}
	same := func(kind string, file, code []metricDecl) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d declared in BENCHMARK.json, %d in spec.go", kind, len(file), len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, layerMetrics)
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDecl{}, endToEnd...), layerMetrics...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("metric %q: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if d.Bound > 0.25 {
			t.Errorf("metric %q: bound %.2f above 0.25", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	if !setup {
		t.Error("setup_s (s, lower, bounded) is not among the end-to-end metrics")
	}
	var setupBound, maxBound float64
	for _, d := range endToEnd {
		if d.Bound <= 0 {
			t.Errorf("end-to-end metric %q has no bound", d.Name)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	if setupBound < maxBound { // timed a few times per run, it repeats worst
		t.Errorf("setup_s has bound %.2f, another metric %.2f: it should have the largest", setupBound, maxBound)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench/pepcmark" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	for _, a := range bf.Command {
		if strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			t.Errorf("command argument %q leaves the checkout", a)
		}
	}
}

// TestSeededInputs: the same seed gives the same inputs, another seed
// other inputs, for every workload.
func TestSeededInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := inputDigest(w, 1, fullScale), inputDigest(w, 1, fullScale), inputDigest(w, 2, fullScale)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %x and %x", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %x", w, a)
		}
	}
}

// TestQuartiles pins iqr to the definition the acceptance check uses,
// Python's statistics.quantiles(vs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8.25 - 2.75},
		{[]float64{3, 1, 2}, 3 - 1},
		{[]float64{10, 20}, 22.5 - 7.5},
	} {
		if got := iqr(tc.vs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("iqr(%v) = %v, want %v", tc.vs, got, tc.want)
		}
	}
}

// TestSmoke runs every workload untraced and traced at micro scale and
// holds each run to the schema: output checks pass, and every metric
// BENCHMARK.json declares for that kind of run is emitted once with its
// unit and nothing else is. The child-process workloads are skipped when
// the go tool or loopback UDP is missing.
func TestSmoke(t *testing.T) {
	e := env{sc: microScale, seed: 1, dur: 600 * time.Millisecond, outDir: t.TempDir(), procs: newProcSet()}
	defer e.procs.stopAll()
	child := true
	if _, err := exec.LookPath("go"); err != nil {
		child = false
		t.Log("go tool not found: skipping the child-process workloads")
	} else if c, err := dataSocket(); err != nil {
		child = false
		t.Logf("loopback UDP unavailable (%v): skipping the child-process workloads", err)
	} else {
		c.Close()
		var cleanup func()
		if e.pepcd, cleanup, err = buildPepcd(); err != nil {
			t.Fatal(err)
		}
		defer cleanup()
	}
	for _, w := range workloadNames {
		if !child && (w == "wire-forward" || w == "n4-churn") {
			continue
		}
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(e, w, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: output checks failed: %v", w, trace, res.Notes)
			}
			decls := endToEnd
			if trace {
				decls = layerMetrics
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, trace, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0) {
					t.Errorf("%s: %s = %v", w, d.Name, m.Value)
				}
			}
			// The last line of a run is exactly the four contract keys.
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil || len(line) != 4 {
				t.Errorf("%s: result line %q", w, res.contractLine())
			}
			if trace {
				checkTraceFile(t, filepath.Join(e.outDir, "trace-"+w+".json"))
			}
		}
	}
}

// checkTraceFile holds a written trace to its shape: spans that end
// after they start, children linked to a root of the same burst.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(tf.Spans) == 0 || len(tf.Stages) == 0 {
		t.Errorf("%s: %d spans, %d stages", path, len(tf.Spans), len(tf.Stages))
	}
	for i, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", path, i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if p := tf.Spans[s.Parent]; p.Parent != -1 || p.Burst != s.Burst || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d (%s) is not inside its parent %d", path, i, s.Name, s.Parent)
		}
	}
}
