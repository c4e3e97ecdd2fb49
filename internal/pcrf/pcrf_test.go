package pcrf

import (
	"encoding/hex"
	"testing"

	"pepc/internal/diameter"
	"pepc/internal/pcef"
)

func sampleRules() []pcef.Rule {
	return []pcef.Rule{
		{ID: 1, Precedence: 10, Action: pcef.ActionDrop,
			Filter: pcef.FilterSpec{Proto: 6, DstPortLo: 25, DstPortHi: 25}},
		{ID: 2, Precedence: 20, Action: pcef.ActionRateLimit, RateBitsPerSec: 2e6, ChargingKey: 7,
			Filter: pcef.FilterSpec{Proto: 17}},
	}
}

func ccr(imsi uint64, reqType uint32) *diameter.Message {
	return diameter.NewRequest(diameter.CmdCreditControl, diameter.AppGx, 1, 1,
		diameter.U64AVP(diameter.AVPUserName, imsi),
		diameter.U32AVP(diameter.AVPCCRequestType, reqType),
	)
}

func TestCCRInitialReturnsRules(t *testing.T) {
	p := New()
	p.SetProfile(100, sampleRules())
	ans, err := diameter.Call(p, ccr(100, CCRInitial))
	if err != nil {
		t.Fatal(err)
	}
	if ans.ResultCode() != diameter.ResultSuccess {
		t.Fatalf("result: %d", ans.ResultCode())
	}
	rules, err := ParseRuleInstalls(ans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules: %d", len(rules))
	}
	if rules[0].ID != 1 || rules[0].Action != pcef.ActionDrop || rules[0].Precedence != 10 {
		t.Fatalf("rule 0: %+v", rules[0])
	}
	if rules[1].RateBitsPerSec != 2e6 || rules[1].ChargingKey != 7 {
		t.Fatalf("rule 1: %+v", rules[1])
	}
	if rules[0].Filter.DstPortLo != 25 || rules[1].Filter.Proto != 17 {
		t.Fatalf("filters: %+v %+v", rules[0].Filter, rules[1].Filter)
	}
	if p.ActiveSessions() != 1 {
		t.Fatalf("sessions: %d", p.ActiveSessions())
	}
}

func TestDefaultRulesApply(t *testing.T) {
	p := New()
	p.SetDefaultRules(sampleRules()[:1])
	ans, _ := diameter.Call(p, ccr(555, CCRInitial))
	rules, err := ParseRuleInstalls(ans)
	if err != nil || len(rules) != 1 {
		t.Fatalf("default rules: %d %v", len(rules), err)
	}
}

func TestCCRTerminationClosesSession(t *testing.T) {
	p := New()
	diameter.Call(p, ccr(1, CCRInitial))
	if p.ActiveSessions() != 1 {
		t.Fatal("session not opened")
	}
	ans, _ := diameter.Call(p, ccr(1, CCRTermination))
	if ans.ResultCode() != diameter.ResultSuccess || p.ActiveSessions() != 0 {
		t.Fatalf("termination: rc=%d sessions=%d", ans.ResultCode(), p.ActiveSessions())
	}
}

func TestCCRUpdateAccepted(t *testing.T) {
	p := New()
	diameter.Call(p, ccr(1, CCRInitial))
	ans, _ := diameter.Call(p, ccr(1, CCRUpdate))
	if ans.ResultCode() != diameter.ResultSuccess {
		t.Fatalf("update: %d", ans.ResultCode())
	}
}

func TestPushRequiresSession(t *testing.T) {
	p := New()
	var pushed []pcef.Rule
	p.OnPush(func(imsi uint64, rules []pcef.Rule) { pushed = rules })
	if err := p.Push(9, sampleRules()); err != ErrUnknownProfile {
		t.Fatalf("push without session: %v", err)
	}
	diameter.Call(p, ccr(9, CCRInitial))
	if err := p.Push(9, sampleRules()[:1]); err != nil {
		t.Fatal(err)
	}
	if len(pushed) != 1 {
		t.Fatalf("push listener got %d rules", len(pushed))
	}
	// Pushed rules become part of the profile.
	if got := len(p.RulesFor(9)); got != 1 {
		t.Fatalf("profile after push: %d", got)
	}
}

func TestHandleRejectsWrongApp(t *testing.T) {
	p := New()
	req := diameter.NewRequest(diameter.CmdCreditControl, diameter.AppS6a, 1, 1,
		diameter.U64AVP(diameter.AVPUserName, 1))
	ans, _ := diameter.Call(p, req)
	if ans.ResultCode() != diameter.ResultUnableToComply {
		t.Fatalf("wrong app: %d", ans.ResultCode())
	}
}

func TestFilterMarshalRoundTrip(t *testing.T) {
	f := pcef.FilterSpec{SrcAddr: 1, SrcPrefix: 8, DstAddr: 2, DstPrefix: 24,
		Proto: 6, SrcPortLo: 1, SrcPortHi: 2, DstPortLo: 3, DstPortHi: 4}
	b := marshalFilter(f, pcef.ActionMark, 999, 0x2e)
	got, action, rate, dscp, err := unmarshalFilter(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != f || action != pcef.ActionMark || rate != 999 || dscp != 0x2e {
		t.Fatalf("round trip: %+v %v %d %d", got, action, rate, dscp)
	}
	if _, _, _, _, err := unmarshalFilter(b[:10]); err == nil {
		t.Fatal("short filter accepted")
	}
}

// TestFilterAVPGolden pins the 33-byte Gx filter layout byte for byte;
// bytes 19-22 are reserved: written zero and ignored on decode.
func TestFilterAVPGolden(t *testing.T) {
	f := pcef.FilterSpec{SrcAddr: 0x0a010203, SrcPrefix: 24, DstAddr: 0xc0a80001, DstPrefix: 16,
		Proto: 17, SrcPortLo: 1000, SrcPortHi: 2000, DstPortLo: 5000, DstPortHi: 6000}
	const golden = "0a01020318c0a80001101103e807d013881770000000000200000000001e84802e"
	b := marshalFilter(f, pcef.ActionRateLimit, 2_000_000, 0x2e)
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("filter AVP encoding changed:\n got %s\nwant %s", got, golden)
	}
	b[19], b[20], b[21], b[22] = 0xff, 0xff, 0xff, 0xff
	if got, _, _, _, err := unmarshalFilter(b); err != nil || got != f {
		t.Fatalf("reserved bytes not ignored: %+v %v", got, err)
	}
}
