package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// stage names one call site into a layer: the layer function a replica
// is about to enter. stBurst is the root every stage of a burst hangs
// under; its self time is the loop's own time between stages.
type stage uint8

const (
	stBurst stage = iota
	stGenBuild
	stGenSend
	stGenSink
	stSockioRx
	stSockioTx
	stCoreSteer
	stRingDequeue
	stCoreUL
	stCoreDL
	stCoreSync
	stRingEgress
	stCoreSigEnqueue
	stCoreSigDrain
	stCoreAttach
	stCoreN4Est
	stCoreN4Mod
	stCoreN4Del
	stCoreN4Flush
	numStages
)

var stageNames = [numStages]string{
	stBurst: "burst", stGenBuild: "gen.build", stGenSend: "gen.send", stGenSink: "gen.sink",
	stSockioRx: "sockio.rx", stSockioTx: "sockio.tx", stCoreSteer: "core.steer",
	stRingDequeue: "ring.dequeue", stCoreUL: "core.ul", stCoreDL: "core.dl", stCoreSync: "core.sync",
	stRingEgress: "ring.egress", stCoreSigEnqueue: "core.sig_enqueue", stCoreSigDrain: "core.sig_drain",
	stCoreAttach: "core.attach", stCoreN4Est: "core.n4_est", stCoreN4Mod: "core.n4_mod",
	stCoreN4Del: "core.n4_del", stCoreN4Flush: "core.n4_flush",
}

// span is one timed call into a layer: the layer function it wraps, its
// start and end on the benchmark clock, the span that caused it, the
// burst it belongs to (spans of one burst share the id) and how many
// items (packets, events, messages) the call moved.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Burst  int64  `json:"burst_id"`
	Items  int64  `json:"items"`
}

// sampleEvery is the period at which a burst's spans are kept: every
// burst is timed, one in 64 is recorded, so the span list of a pass of
// millions of bursts stays in memory.
const sampleEvery = 64

// stageSum is one stage's total over every burst of a traced pass. A
// stage's self time is its span minus its children; stages have none,
// and the burst root is left with what its stages do not cover.
type stageSum struct {
	Name   string `json:"name"`
	SelfNs int64  `json:"self_ns"`
	Calls  int64  `json:"calls"`
	Items  int64  `json:"items"`
}

// perItem is the stage's self time per item it moved, 0 when it moved
// none.
func (s stageSum) perItem() float64 {
	if s.Items == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.Items)
}

// perCall is the stage's self time per call, 0 when it never ran.
func (s stageSum) perCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.Calls)
}

// tracer times the benchmark's calls into each layer. Every stage of a
// burst is a child of the burst's root and stages are contiguous: the
// clock is read once per stage boundary, so the end of one stage is the
// start of the next. Every burst adds to the per-stage sums; one burst
// in sampleEvery also leaves its spans, which stay in memory until the
// pass ends. A nil tracer does nothing, which is how the untraced passes
// run the same loops.
type tracer struct {
	sums   [numStages]stageSum
	spans  []span
	bursts int64

	inBurst    bool
	burstStart int64
	covered    int64 // ns of the open burst its closed stages account for
	cur        stage // open stage, stBurst when none
	curStart   int64
	root, open int32 // the open burst's spans when it is sampled, else -1
}

func newTracer() *tracer {
	t := &tracer{root: -1, open: -1, spans: make([]span, 1<<16)}
	for i := range t.spans { // touch the pages now, not inside a timed burst
		t.spans[i].Parent = -1
	}
	t.spans = t.spans[:0]
	for s := range t.sums {
		t.sums[s].Name = stageNames[s]
	}
	return t
}

// begin starts a burst at now.
func (t *tracer) begin(now int64) {
	if t == nil {
		return
	}
	id := t.bursts
	t.bursts++
	t.inBurst, t.burstStart, t.covered, t.cur = true, now, 0, stBurst
	if id%sampleEvery == sampleEvery-1 { // the last of each 64, so never the cold first burst
		t.root = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: stageNames[stBurst], Start: now, Parent: -1, Burst: id})
	}
}

// closeStage ends the open stage at now.
func (t *tracer) closeStage(now int64) {
	if t.cur == stBurst {
		return
	}
	d := now - t.curStart
	t.sums[t.cur].SelfNs += d
	t.sums[t.cur].Calls++
	t.covered += d
	if t.open >= 0 {
		t.spans[t.open].End = now
	}
}

// stage closes the open stage and opens s with one clock read.
func (t *tracer) stage(s stage) {
	if t == nil || !t.inBurst {
		return
	}
	now := nowNs()
	t.closeStage(now)
	t.cur, t.curStart = s, now
	if t.root >= 0 {
		t.open = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: stageNames[s], Start: now, Parent: t.root, Burst: t.spans[t.root].Burst})
	}
}

// items says how many items the open stage moved.
func (t *tracer) items(n int) {
	if t == nil || !t.inBurst || t.cur == stBurst {
		return
	}
	t.sums[t.cur].Items += int64(n)
	if t.open >= 0 {
		t.spans[t.open].Items = int64(n)
	}
}

// end closes the open stage and the burst, which moved items items.
func (t *tracer) end(items int) {
	if t == nil || !t.inBurst {
		return
	}
	now := nowNs()
	t.closeStage(now)
	t.sums[stBurst].SelfNs += now - t.burstStart - t.covered
	t.sums[stBurst].Calls++
	t.sums[stBurst].Items += int64(items)
	if t.root >= 0 {
		t.spans[t.root].End = now
		t.spans[t.root].Items = int64(items)
	}
	t.inBurst, t.cur, t.root, t.open = false, stBurst, -1, -1
}

// reconcile is the trace's own check: the self time of every stage and
// burst root of the pass over the pass's wall time. Near 1 means the
// stages account for the whole pass; the rest is the loop's bookkeeping
// between one burst's end and the next one's start.
func (t *tracer) reconcile(wallNs int64) float64 {
	if wallNs <= 0 {
		return 0
	}
	var sum int64
	for _, s := range t.sums {
		sum += s.SelfNs
	}
	return float64(sum) / float64(wallNs)
}

// topStages lists the stages that ran by descending self time, the root
// left out.
func (t *tracer) topStages() []stageSum {
	var all []stageSum
	for _, s := range t.sums[stBurst+1:] {
		if s.Calls > 0 {
			all = append(all, s)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].SelfNs > all[j].SelfNs })
	return all
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload    string     `json:"workload"`
	Seed        uint64     `json:"seed"`
	SampleEvery int        `json:"sample_every"`
	Bursts      int64      `json:"bursts"`
	WallNs      int64      `json:"wall_ns"`
	Reconcile   float64    `json:"reconcile_share"`
	Stages      []stageSum `json:"stages"` // over every burst, root last
	Spans       []span     `json:"spans"`  // of one burst in SampleEvery
}

// write stores the pass's per-stage sums and sampled spans under dir.
func (t *tracer) write(dir, workload string, seed uint64, wallNs int64) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, SampleEvery: sampleEvery, Bursts: t.bursts,
		WallNs: wallNs, Reconcile: t.reconcile(wallNs), Stages: append(t.topStages(), t.sums[stBurst]), Spans: t.spans}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
