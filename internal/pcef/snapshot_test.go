package pcef

import (
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
