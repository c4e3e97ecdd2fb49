package pcef

import (
	"errors"
	"sync"
	"testing"

	"pepc/internal/pkt"
)

func flowTo(dst uint32, dport uint16, proto uint8) pkt.Flow {
	return pkt.Flow{Src: pkt.IPv4Addr(10, 0, 0, 1), Dst: dst, SrcPort: 40000, DstPort: dport, Proto: proto}
}

// TestMatchFlow: each spec matches every flow in its match list and none
// in its miss list.
func TestMatchFlow(t *testing.T) {
	tcp := pkt.Flow{Src: pkt.IPv4Addr(10, 0, 0, 1), Dst: pkt.IPv4Addr(10, 1, 200, 5), SrcPort: 1000, DstPort: 85, Proto: pkt.ProtoTCP}
	with := func(mod func(*pkt.Flow)) pkt.Flow {
		f := tcp
		mod(&f)
		return f
	}
	udp := with(func(f *pkt.Flow) { f.Proto = pkt.ProtoUDP })
	icmp := with(func(f *pkt.Flow) { f.Proto, f.SrcPort, f.DstPort = pkt.ProtoICMP, 0, 0 })
	dport := func(p uint16) pkt.Flow { return with(func(f *pkt.Flow) { f.DstPort = p }) }
	sport := func(p uint16) pkt.Flow { return with(func(f *pkt.Flow) { f.SrcPort = p }) }

	cases := []struct {
		name        string
		spec        FilterSpec
		match, miss []pkt.Flow
	}{
		{"wildcard", FilterSpec{}, []pkt.Flow{tcp, udp, icmp}, nil},
		{"protocol", FilterSpec{Proto: pkt.ProtoUDP}, []pkt.Flow{udp}, []pkt.Flow{tcp, icmp}},
		{"src_prefix", FilterSpec{SrcAddr: pkt.IPv4Addr(10, 0, 0, 0), SrcPrefix: 24},
			[]pkt.Flow{tcp, with(func(f *pkt.Flow) { f.Src = pkt.IPv4Addr(10, 0, 0, 255) })},
			[]pkt.Flow{with(func(f *pkt.Flow) { f.Src = pkt.IPv4Addr(10, 0, 1, 1) })}},
		{"dst_prefix", FilterSpec{DstAddr: pkt.IPv4Addr(10, 1, 0, 0), DstPrefix: 16},
			[]pkt.Flow{tcp, icmp},
			[]pkt.Flow{with(func(f *pkt.Flow) { f.Dst = pkt.IPv4Addr(10, 2, 0, 5) })}},
		{"host_prefix", FilterSpec{DstAddr: pkt.IPv4Addr(10, 1, 200, 5), DstPrefix: 32},
			[]pkt.Flow{tcp},
			[]pkt.Flow{with(func(f *pkt.Flow) { f.Dst = pkt.IPv4Addr(10, 1, 200, 6) })}},
		{"zero_prefix_ignores_address", FilterSpec{SrcAddr: pkt.IPv4Addr(1, 2, 3, 4), DstAddr: pkt.IPv4Addr(5, 6, 7, 8)},
			[]pkt.Flow{tcp, icmp}, nil},
		{"dst_port_range", FilterSpec{DstPortLo: 80, DstPortHi: 90},
			[]pkt.Flow{dport(80), dport(85), dport(90)}, []pkt.Flow{dport(79), dport(91)}},
		{"src_port_range", FilterSpec{SrcPortLo: 1000, SrcPortHi: 1010},
			[]pkt.Flow{sport(1000), sport(1010)}, []pkt.Flow{sport(999), sport(1011)}},
		{"ports_only_tcp_udp", FilterSpec{DstPortLo: 0, DstPortHi: 100},
			[]pkt.Flow{tcp, udp}, []pkt.Flow{icmp}},
		{"all_fields", FilterSpec{SrcAddr: pkt.IPv4Addr(10, 0, 0, 1), SrcPrefix: 32, DstAddr: pkt.IPv4Addr(10, 1, 0, 0), DstPrefix: 16,
			Proto: pkt.ProtoTCP, SrcPortLo: 1000, SrcPortHi: 1000, DstPortLo: 85, DstPortHi: 85},
			[]pkt.Flow{tcp}, []pkt.Flow{udp, dport(86), sport(1001)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, f := range c.match {
				if !c.spec.MatchFlow(f) {
					t.Errorf("{%v} does not match %v", c.spec, f)
				}
			}
			for _, f := range c.miss {
				if c.spec.MatchFlow(f) {
					t.Errorf("{%v} matches %v", c.spec, f)
				}
			}
		})
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		spec FilterSpec
		want error
	}{
		{FilterSpec{}, nil},
		{FilterSpec{SrcPrefix: 32, DstPrefix: 32, SrcPortLo: 5, SrcPortHi: 5, DstPortLo: 0, DstPortHi: 65535}, nil},
		{FilterSpec{SrcPrefix: 33}, ErrBadPrefix},
		{FilterSpec{DstPrefix: 60}, ErrBadPrefix},
		{FilterSpec{SrcPortLo: 10, SrcPortHi: 5}, ErrBadPortRange},
		{FilterSpec{DstPortLo: 10, DstPortHi: 5}, ErrBadPortRange},
	} {
		if err := c.spec.Validate(); err != c.want {
			t.Errorf("{%v}.Validate() = %v, want %v", c.spec, err, c.want)
		}
	}
}

func TestInstallClassifyRemove(t *testing.T) {
	tb := NewTable()
	err := tb.Install(Rule{
		ID:         1,
		Precedence: 10,
		Filter:     FilterSpec{Proto: pkt.ProtoUDP, DstPortLo: 53, DstPortHi: 53},
		Action:     ActionDrop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
	v := tb.Snapshot().ClassifyFlow(flowTo(2, 53, pkt.ProtoUDP))
	if !v.Matched || v.Action != ActionDrop || v.RuleID != 1 {
		t.Fatalf("verdict = %+v", v)
	}
	// Non-matching traffic gets the zero verdict: allow, unmatched.
	if v = tb.Snapshot().ClassifyFlow(flowTo(2, 80, pkt.ProtoTCP)); v != (Verdict{}) {
		t.Fatalf("no-match verdict = %+v", v)
	}
	if err := tb.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Remove(1); err != ErrUnknownRule {
		t.Fatalf("double remove: %v", err)
	}
	if v = tb.Snapshot().ClassifyFlow(flowTo(2, 53, pkt.ProtoUDP)); v.Matched {
		t.Fatal("removed rule still matches")
	}
}

func TestDuplicateInstall(t *testing.T) {
	tb := NewTable()
	r := Rule{ID: 7, Filter: FilterSpec{Proto: pkt.ProtoTCP}}
	if err := tb.Install(r); err != nil {
		t.Fatal(err)
	}
	if err := tb.Install(r); err != ErrDuplicateRule {
		t.Fatalf("duplicate: %v", err)
	}
}

// TestInstallRejectsBadFilter: rules arriving over Gx are not
// range-checked on decode, so Install is where a bad filter stops.
func TestInstallRejectsBadFilter(t *testing.T) {
	tb := NewTable()
	if err := tb.Install(Rule{ID: 1, Filter: FilterSpec{SrcPrefix: 60}}); !errors.Is(err, ErrBadPrefix) {
		t.Fatalf("prefix 60: %v", err)
	}
	if err := tb.Install(Rule{ID: 2, Filter: FilterSpec{DstPortLo: 10, DstPortHi: 5}}); !errors.Is(err, ErrBadPortRange) {
		t.Fatalf("port range 10-5: %v", err)
	}
	if tb.Len() != 0 {
		t.Fatalf("rejected rules installed: len = %d", tb.Len())
	}
}

func TestPrecedenceOrder(t *testing.T) {
	tb := NewTable()
	// Broad low-priority allow vs narrow high-priority drop.
	tb.Install(Rule{ID: 2, Precedence: 100, Filter: FilterSpec{Proto: pkt.ProtoTCP}, Action: ActionAllow, ChargingKey: 9})
	tb.Install(Rule{ID: 1, Precedence: 1, Filter: FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: 25, DstPortHi: 25}, Action: ActionDrop})
	// Equal precedence: the lower id wins, whatever the install order.
	tb.Install(Rule{ID: 4, Precedence: 50, Filter: FilterSpec{Proto: pkt.ProtoUDP}})
	tb.Install(Rule{ID: 3, Precedence: 50, Filter: FilterSpec{Proto: pkt.ProtoUDP}})
	rs := tb.Snapshot()
	for _, c := range []struct {
		f    pkt.Flow
		want uint32
	}{
		{flowTo(5, 25, pkt.ProtoTCP), 1},
		{flowTo(5, 80, pkt.ProtoTCP), 2},
		{flowTo(5, 53, pkt.ProtoUDP), 3},
	} {
		if v := rs.ClassifyFlow(c.f); v.RuleID != c.want {
			t.Fatalf("%v: rule %d won, want %d (%+v)", c.f, v.RuleID, c.want, v)
		}
	}
}

func TestVerdictCarriesRuleAttributes(t *testing.T) {
	tb := NewTable()
	tb.Install(Rule{
		ID: 4, Filter: FilterSpec{Proto: pkt.ProtoTCP},
		Action: ActionMark, DSCP: 0x2e, ChargingKey: 3, RateBitsPerSec: 5e6,
	})
	v := tb.Snapshot().ClassifyFlow(flowTo(1, 80, pkt.ProtoTCP))
	if v.DSCP != 0x2e || v.ChargingKey != 3 || v.RateBitsPerSec != 5e6 {
		t.Fatalf("verdict attrs: %+v", v)
	}
}

func TestConcurrentInstallAndClassify(t *testing.T) {
	tb := NewTable()
	tb.Install(Rule{ID: 1, Filter: FilterSpec{Proto: pkt.ProtoUDP}})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint32(2); i < 200; i++ {
			tb.Install(Rule{ID: i, Precedence: uint16(i), Filter: FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: uint16(i), DstPortHi: uint16(i)}})
		}
	}()
	go func() {
		defer wg.Done()
		f := flowTo(1, 53, pkt.ProtoUDP)
		for i := 0; i < 20000; i++ {
			if v := tb.Snapshot().ClassifyFlow(f); !v.Matched {
				t.Error("stable rule lost during concurrent install")
				return
			}
		}
	}()
	wg.Wait()
	if tb.Len() != 199 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestActionStrings(t *testing.T) {
	for a, want := range map[Action]string{
		ActionAllow: "allow", ActionDrop: "drop", ActionRateLimit: "rate-limit", ActionMark: "mark",
	} {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", a, a.String())
		}
	}
}

func BenchmarkClassifyFlow10Rules(b *testing.B) {
	tb := NewTable()
	for i := uint32(1); i <= 10; i++ {
		tb.Install(Rule{ID: i, Precedence: uint16(i),
			Filter: FilterSpec{Proto: pkt.ProtoTCP, DstPortLo: uint16(i * 1000), DstPortHi: uint16(i*1000 + 10)}})
	}
	rs := tb.Snapshot()
	f := flowTo(2, 5005, pkt.ProtoTCP) // matches rule 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := rs.ClassifyFlow(f); !v.Matched {
			b.Fatal("no match")
		}
	}
}

func BenchmarkMatchFlow(b *testing.B) {
	spec := FilterSpec{Proto: pkt.ProtoTCP, DstAddr: pkt.IPv4Addr(10, 0, 0, 0), DstPrefix: 8, DstPortLo: 80, DstPortHi: 80}
	f := pkt.Flow{Src: pkt.IPv4Addr(192, 168, 0, 1), Dst: pkt.IPv4Addr(10, 1, 2, 3), SrcPort: 40000, DstPort: 80, Proto: pkt.ProtoTCP}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !spec.MatchFlow(f) {
			b.Fatal("no match")
		}
	}
}
