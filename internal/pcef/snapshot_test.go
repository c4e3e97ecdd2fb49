package pcef

import (
	"sync"
	"testing"

	"pepc/internal/pkt"
)

// TestSnapshotIsStableView: a RuleSet agrees with the live table at
// capture time and keeps classifying against that state after later
// installs and removals (the copy-on-write contract the lock-free batch
// fast path relies on).
func TestSnapshotIsStableView(t *testing.T) {
	tb := NewTable()
	if err := tb.Install(Rule{
		ID: 1, Precedence: 10, Action: ActionDrop,
		Filter: FilterSpec{Proto: pkt.ProtoUDP, DstPortLo: 53, DstPortHi: 53},
	}); err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()

	dns := flowTo(2, 53, pkt.ProtoUDP)
	web := flowTo(2, 80, pkt.ProtoTCP)
	if v := snap.ClassifyFlow(dns); !v.Matched || v.Action != ActionDrop || v.RuleID != 1 {
		t.Fatalf("snapshot verdict = %+v", v)
	}
	if v := snap.ClassifyFlow(web); v.Matched || v.Action != ActionAllow {
		t.Fatalf("snapshot default verdict = %+v", v)
	}

	// Mutate the table: the snapshot must not move.
	if err := tb.Install(Rule{
		ID: 2, Precedence: 1, Action: ActionDrop,
		Filter: FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: 80, DstPortHi: 80},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Remove(1); err != nil {
		t.Fatal(err)
	}

	if v := snap.ClassifyFlow(dns); !v.Matched || v.RuleID != 1 {
		t.Fatalf("snapshot lost its rule after table mutation: %+v", v)
	}
	if v := snap.ClassifyFlow(web); v.Matched || v.Action != ActionAllow {
		t.Fatalf("snapshot saw a later install: %+v", v)
	}
	// A fresh snapshot sees the new state.
	snap2 := tb.Snapshot()
	if v := snap2.ClassifyFlow(web); !v.Matched || v.RuleID != 2 {
		t.Fatalf("fresh snapshot verdict = %+v", v)
	}
	if v := snap2.ClassifyFlow(dns); v != (Verdict{}) {
		t.Fatalf("fresh snapshot no-match verdict = %+v", v)
	}
}

// TestSnapshotBeforeInstallKeepsOldRules: the rule slice is published
// through an atomic pointer with no reader lock, so a snapshot taken
// while a writer installs must see exactly the rules published before it
// — a prefix of the install order, never shrinking between snapshots —
// and must keep classifying with them after the writer has moved on.
// Run under -race by CI.
func TestSnapshotBeforeInstallKeepsOldRules(t *testing.T) {
	const n = 64
	tb := NewTable()
	// Rules 1..n each drop one TCP port; installed in order, so a
	// snapshot's rules are ports 1..k for some k.
	seen := func(rs RuleSet) int {
		k := 0
		for p := uint16(1); p <= n; p++ {
			if rs.ClassifyFlow(flowTo(2, p, pkt.ProtoTCP)).Matched {
				if int(p) != k+1 {
					t.Errorf("snapshot matches port %d but not port %d", p, k+1)
				}
				k = int(p)
			}
		}
		return k
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(1); i <= n; i++ {
			if err := tb.Install(Rule{ID: i, Precedence: uint16(i), Action: ActionDrop,
				Filter: FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: uint16(i), DstPortHi: uint16(i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	type taken struct {
		rs RuleSet
		k  int
	}
	var snaps []taken
	last := 0
	for last < n {
		rs := tb.Snapshot()
		k := seen(rs)
		if k < last {
			t.Fatalf("snapshot shrank from %d to %d rules", last, k)
		}
		if l := len(snaps); l == 0 || snaps[l-1].k != k {
			snaps = append(snaps, taken{rs, k})
		}
		last = k
	}
	wg.Wait()
	// Every snapshot still classifies with the rules it was taken over.
	for _, s := range snaps {
		if k := seen(s.rs); k != s.k {
			t.Fatalf("snapshot taken over %d rules now matches %d", s.k, k)
		}
	}
	if tb.Len() != n || seen(tb.Snapshot()) != n {
		t.Fatalf("table holds %d rules, want %d", tb.Len(), n)
	}
}
