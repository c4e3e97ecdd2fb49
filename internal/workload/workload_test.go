package workload

import (
	"testing"

	"pepc/internal/gtp"
	"pepc/internal/pkt"
)

func testUsers(n int) []User {
	users := make([]User, n)
	for i := range users {
		users[i] = User{
			IMSI:       uint64(1000 + i),
			UplinkTEID: 0x10000000 | uint32(i+1),
			UEAddr:     pkt.IPv4Addr(10, 0, 0, 0) | uint32(i+1),
		}
	}
	return users
}

func TestDefaultParameters(t *testing.T) {
	// Table 2 of the paper.
	if DefaultUplinkRatio != 1 || DefaultDownlinkRatio != 3 {
		t.Fatal("UL:DL default must be 1:3")
	}
	if DefaultDownlinkSize != 64 || DefaultUplinkSize != 128 {
		t.Fatal("packet size defaults must be 64/128 bytes")
	}
	if DefaultSignalingRate != 100_000 {
		t.Fatal("signaling default must be 100K events/s")
	}
	if DefaultUsers != 1_000_000 {
		t.Fatal("user default must be 1M")
	}
	if DefaultSignalingEvent != "attach request" {
		t.Fatal("default signaling event must be attach request")
	}
}

func TestUplinkPacketsAreValidGTPU(t *testing.T) {
	users := testUsers(4)
	g := NewTrafficGen(TrafficConfig{}, users)
	for i := 0; i < 8; i++ {
		b := g.NextUplink()
		want := users[i%4]
		teid, err := gtp.PeekTEID(b.Bytes())
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if teid != want.UplinkTEID {
			t.Fatalf("packet %d: teid %#x, want %#x", i, teid, want.UplinkTEID)
		}
		// Decapsulate and check the inner packet.
		got, err := gtp.DecapGPDU(b)
		if err != nil || got != teid {
			t.Fatalf("decap: %v", err)
		}
		var ip pkt.IPv4
		if err := ip.DecodeFromBytes(b.Bytes()); err != nil {
			t.Fatal(err)
		}
		if ip.Src != want.UEAddr {
			t.Fatalf("inner src = %s, want %s", pkt.FormatIPv4(ip.Src), pkt.FormatIPv4(want.UEAddr))
		}
		if b.Len() != DefaultUplinkSize {
			t.Fatalf("inner size = %d", b.Len())
		}
		b.Free()
	}
}

func TestDownlinkPacketsTargetUser(t *testing.T) {
	users := testUsers(3)
	g := NewTrafficGen(TrafficConfig{DownlinkSize: 64}, users)
	b := g.NextDownlink()
	var ip pkt.IPv4
	if err := ip.DecodeFromBytes(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ip.Dst != users[0].UEAddr {
		t.Fatalf("dst = %s", pkt.FormatIPv4(ip.Dst))
	}
	if b.Len() != 64 {
		t.Fatalf("size = %d", b.Len())
	}
	b.Free()
}

func TestMixedRatio(t *testing.T) {
	g := NewTrafficGen(TrafficConfig{UplinkRatio: 1, DownlinkRatio: 3}, testUsers(10))
	up, down := 0, 0
	for i := 0; i < 400; i++ {
		b, isUp := g.Next()
		if isUp {
			up++
		} else {
			down++
		}
		b.Free()
	}
	if up != 100 || down != 300 {
		t.Fatalf("mix = %d:%d, want 100:300", up, down)
	}
}

func TestRoundRobinCoversPopulation(t *testing.T) {
	users := testUsers(50)
	g := NewTrafficGen(TrafficConfig{}, users)
	seen := map[uint32]bool{}
	for i := 0; i < 50; i++ {
		b := g.NextUplink()
		teid, _ := gtp.PeekTEID(b.Bytes())
		seen[teid] = true
		b.Free()
	}
	if len(seen) != 50 {
		t.Fatalf("covered %d users", len(seen))
	}
}

func TestZipfUserSkewed(t *testing.T) {
	users := testUsers(1000)
	g := NewTrafficGen(TrafficConfig{Seed: 42}, users)
	counts := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		counts[g.ZipfUser(1.5).IMSI]++
	}
	// The most popular user must dominate a uniform share.
	if counts[users[0].IMSI] < 10000/1000*10 {
		t.Fatalf("zipf head count = %d, not skewed", counts[users[0].IMSI])
	}
}

func TestSignalingGenUniform(t *testing.T) {
	users := testUsers(5)
	sg := NewSignalingGen(EventAttach, users)
	counts := map[uint64]int{}
	for i := 0; i < 100; i++ {
		ev := sg.Next()
		if ev.Kind != EventAttach {
			t.Fatalf("kind = %v", ev.Kind)
		}
		counts[ev.IMSI]++
	}
	for _, u := range users {
		if counts[u.IMSI] != 20 {
			t.Fatalf("user %d got %d events, want 20", u.IMSI, counts[u.IMSI])
		}
	}
}

func TestHandoverTargetsVary(t *testing.T) {
	sg := NewSignalingGen(EventS1Handover, testUsers(2))
	a1, t1, _ := sg.NextHandoverTarget()
	a2, t2, _ := sg.NextHandoverTarget()
	if a1 == a2 || t1 == t2 {
		t.Fatal("handover targets repeat")
	}
}

func BenchmarkNextUplink(b *testing.B) {
	g := NewTrafficGen(TrafficConfig{}, testUsers(1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := g.NextUplink()
		buf.Free()
	}
}
