package qos

import (
	"testing"
	"testing/quick"
)

const second = int64(1_000_000_000)

func TestNewTokenBucketValidation(t *testing.T) {
	if _, err := NewTokenBucket(0, 100); err != ErrBadRate {
		t.Fatalf("zero rate: %v", err)
	}
	if _, err := NewTokenBucket(100, 0); err != ErrBadRate {
		t.Fatalf("zero burst: %v", err)
	}
	tb, err := NewTokenBucket(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Tokens(0) != 100 {
		t.Fatalf("new bucket not full: %d", tb.Tokens(0))
	}
}

func TestTokenBucketEnforcesRate(t *testing.T) {
	// 1000 B/s with burst 100: after draining the burst, one second of
	// traffic must admit ~1000 bytes.
	tb, _ := NewTokenBucket(1000, 100)
	now := int64(0)
	if !tb.Allow(now, 100) {
		t.Fatal("initial burst rejected")
	}
	if tb.Allow(now, 1) {
		t.Fatal("over-burst packet admitted")
	}
	// Send 10-byte packets every 10ms for 1 second: exactly rate-limited.
	admitted := 0
	for i := 0; i < 100; i++ {
		now += second / 100
		if tb.Allow(now, 10) {
			admitted++
		}
	}
	if admitted != 100 { // 1000 B over 1 s at 1000 B/s
		t.Fatalf("admitted %d/100 packets", admitted)
	}
	// Doubling the offered load must admit only ~half.
	admitted = 0
	for i := 0; i < 200; i++ {
		now += second / 200
		if tb.Allow(now, 10) {
			admitted++
		}
	}
	if admitted < 95 || admitted > 105 {
		t.Fatalf("at 2x load admitted %d, want ~100", admitted)
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	tb, _ := NewTokenBucket(1_000_000, 500)
	// A long idle period must not accrue more than burst.
	if got := tb.Tokens(100 * second); got != 500 {
		t.Fatalf("tokens after idle = %d, want 500", got)
	}
}

func TestTokenBucketLargeGapNoOverflow(t *testing.T) {
	tb, _ := NewTokenBucket(10_000_000_000, 1<<30) // 80 Gb/s
	if got := tb.Tokens(3600 * second); got != 1<<30 {
		t.Fatalf("tokens = %d", got)
	}
	if !tb.Allow(3600*second, 1<<29) {
		t.Fatal("half-burst rejected")
	}
}

func TestTokenBucketTimeGoingBackwards(t *testing.T) {
	tb, _ := NewTokenBucket(1000, 100)
	tb.Allow(second, 100)
	// Clock replay must not mint tokens.
	if tb.Allow(second-1, 1) {
		t.Fatal("backwards time minted tokens")
	}
}

func TestTokenBucketConfigureClamps(t *testing.T) {
	tb, _ := NewTokenBucket(1000, 1000)
	if err := tb.Configure(1000, 10); err != nil {
		t.Fatal(err)
	}
	if got := tb.Tokens(0); got != 10 {
		t.Fatalf("tokens after shrink = %d", got)
	}
	if err := tb.Configure(0, 10); err != ErrBadRate {
		t.Fatalf("bad configure: %v", err)
	}
}

// Property: admitted bytes over any interval never exceed burst + rate*dt.
func TestTokenBucketNeverExceedsEnvelope(t *testing.T) {
	f := func(seed uint32) bool {
		rate, burst := uint64(5000), uint64(500)
		tb, _ := NewTokenBucket(rate, burst)
		rng := seed
		now := int64(0)
		var admitted uint64
		for i := 0; i < 2000; i++ {
			rng = rng*1664525 + 1013904223
			now += int64(rng % 2_000_000) // 0-2ms steps
			size := uint64(rng%1400) + 1
			if tb.Allow(now, size) {
				admitted += size
			}
		}
		envelope := burst + rate*uint64(now)/uint64(second) + 1
		return admitted <= envelope
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// IMS signaling outranks voice, voice outranks video, all GBR classes
	// outrank best effort.
	if !(Priority(5) < Priority(1) && Priority(1) < Priority(2) && Priority(2) < Priority(9)) {
		t.Fatal("QCI priority ordering broken")
	}
	for qci := uint8(1); qci <= 4; qci++ {
		if !IsGBR(qci) {
			t.Fatalf("QCI %d should be GBR", qci)
		}
	}
	for _, qci := range []uint8{5, 6, 7, 8, 9, 0, 100} {
		if IsGBR(qci) {
			t.Fatalf("QCI %d should not be GBR", qci)
		}
	}
}

func TestUserLimiterDirectionsIndependent(t *testing.T) {
	var ul UserLimiter
	ul.ConfigureUser(8_000 /* 1000 B/s up */, 80_000 /* 10 KB/s down */)
	now := int64(0)
	// Drain uplink completely.
	for ul.Allow(now, true, 0, 1000) {
	}
	// Downlink must still be open.
	if !ul.Allow(now, false, 0, 1000) {
		t.Fatal("downlink starved by uplink policing")
	}
}

func TestUserLimiterBearerMBR(t *testing.T) {
	var ul UserLimiter
	ul.ConfigureUser(0, 0) // no AMBR
	ul.ConfigureBearer(0, 8_000, 8_000)
	ul.ConfigureBearer(1, 0, 0) // unpoliced bearer
	now := int64(0)
	for ul.Allow(now, true, 0, 500) {
	}
	if ul.Allow(now, true, 0, 500) {
		t.Fatal("bearer 0 not policed")
	}
	if !ul.Allow(now, true, 1, 500) {
		t.Fatal("unpoliced bearer rejected")
	}
	// Out-of-range bearer index falls back to AMBR-only policing.
	if !ul.Allow(now, true, 99, 500) {
		t.Fatal("out-of-range bearer rejected")
	}
}

func TestUserLimiterUnconfiguredAllowsAll(t *testing.T) {
	var ul UserLimiter
	if !ul.Allow(0, true, 0, 1<<20) || !ul.Allow(0, false, 0, 1<<20) {
		t.Fatal("zero-value limiter must not police")
	}
}

func TestDefaultBurstBytes(t *testing.T) {
	if got := DefaultBurstBytes(50_000_000); got != 1_000_000 {
		t.Fatalf("burst for 50MB/s = %d", got)
	}
	if got := DefaultBurstBytes(1000); got != 3000 {
		t.Fatalf("minimum burst = %d", got)
	}
}

func BenchmarkTokenBucketAllow(b *testing.B) {
	tb, _ := NewTokenBucket(1<<30, 1<<20)
	b.ReportAllocs()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now += 100
		tb.Allow(now, 64)
	}
}

func BenchmarkUserLimiterUplink(b *testing.B) {
	var ul UserLimiter
	ul.ConfigureUser(100e9, 100e9)
	ul.ConfigureBearer(0, 100e9, 100e9)
	b.ReportAllocs()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now += 100
		ul.Allow(now, true, 0, 64)
	}
}

// TestLazyBearerBuckets: an MBR on bearer 2 alone allocates the
// per-bearer buckets, its levels round-trip exactly through
// ExportLevels/SeedLevels while every other bearer reads 0, and setting
// the MBR back to 0 stops policing that bearer. An AMBR-only profile
// allocates nothing.
func TestLazyBearerBuckets(t *testing.T) {
	var plain UserLimiter
	if avg := testing.AllocsPerRun(10, func() {
		plain.ConfigureUser(8_000_000, 8_000_000)
		plain.ConfigureBearer(0, 0, 0)
	}); avg != 0 || plain.bearers != nil {
		t.Fatalf("AMBR-only profile: %.1f allocs, bearers %p", avg, plain.bearers)
	}

	var ul UserLimiter
	ul.ConfigureUser(8*1_000_000, 8*1_000_000)  // 20000 B AMBR bursts
	ul.ConfigureBearer(2, 8*500_000, 8*200_000) // 10000 B up, 4000 B down
	now := int64(1_000_000_000)
	if !ul.Allow(now, true, 2, 1234) || !ul.Allow(now, false, 2, 567) {
		t.Fatal("packets within burst denied")
	}
	lv := ul.ExportLevels(now)
	want := Levels{
		AMBRUp: 20000 - 1234, AMBRDown: 20000 - 567,
		BearerUp: [4]uint64{2: 10000 - 1234}, BearerDown: [4]uint64{2: 4000 - 567},
	}
	if lv != want {
		t.Fatalf("exported %+v, want %+v", lv, want)
	}
	var dst UserLimiter
	dst.ConfigureUser(8*1_000_000, 8*1_000_000)
	dst.ConfigureBearer(2, 8*500_000, 8*200_000)
	dst.SeedLevels(lv, now)
	if got := dst.ExportLevels(now); got != want {
		t.Fatalf("seeded %+v, want %+v", got, want)
	}

	// The bearer bucket is what denies here: AMBR has room.
	if dst.Allow(now, false, 2, 4000) {
		t.Fatal("bearer 2 MBR not policed")
	}
	dst.ConfigureBearer(2, 0, 0)
	if !dst.Allow(now, false, 2, 4000) || !dst.AllowRun(now, true, 2, 9000) {
		t.Fatal("bearer 2 still policed after its MBR was set to 0")
	}
}
