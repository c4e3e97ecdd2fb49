package qos

import "testing"

// directions runs fn once per direction, as a subtest.
func directions(t *testing.T, fn func(t *testing.T, uplink bool)) {
	for _, d := range []struct {
		name   string
		uplink bool
	}{{"uplink", true}, {"downlink", false}} {
		t.Run(d.name, func(t *testing.T) { fn(t, d.uplink) })
	}
}

// configure applies an AMBR and one bearer's MBR (bits/s) to the given
// direction only; the other direction stays unpoliced.
func configure(ul *UserLimiter, uplink bool, ambr uint64, bearer int, mbr uint64) {
	if uplink {
		ul.ConfigureUser(ambr, 0)
		ul.ConfigureBearer(bearer, mbr, 0)
	} else {
		ul.ConfigureUser(0, ambr)
		ul.ConfigureBearer(bearer, 0, mbr)
	}
}

// TestAllowRunAllOrNothing: the aggregate run check either admits the
// whole run (debiting every governing bucket) or consumes nothing at all,
// so the caller's per-packet fallback starts from an untouched state.
func TestAllowRunAllOrNothing(t *testing.T) {
	directions(t, func(t *testing.T, uplink bool) {
		var ul UserLimiter
		configure(&ul, uplink, 8*100_000, 0, 0) // 100 KB/s → 3000 B burst floor
		ambr, _ := ul.buckets(uplink, -1)
		now := int64(0)

		if !ul.AllowRun(now, uplink, -1, 3000) {
			t.Fatal("run within burst denied")
		}
		if got := ambr.Tokens(now); got != 0 {
			t.Fatalf("tokens after admitted run = %d, want 0", got)
		}

		// Fresh limiter: reapplying an unchanged configuration deliberately
		// does NOT refill (see configurePreserving).
		ul = UserLimiter{}
		configure(&ul, uplink, 8*100_000, 0, 0)
		ambr, _ = ul.buckets(uplink, -1)
		if ul.AllowRun(now, uplink, -1, 3001) {
			t.Fatal("run beyond burst admitted")
		}
		if got := ambr.Tokens(now); got != 3000 {
			t.Fatalf("denied run consumed tokens: %d left, want 3000", got)
		}
		// The other direction is unpoliced.
		if !ul.AllowRun(now, !uplink, -1, 1<<40) {
			t.Fatal("unpoliced direction denied")
		}
		// Unconfigured limiter admits everything.
		var free UserLimiter
		if !free.AllowRun(now, uplink, 0, 1<<40) {
			t.Fatal("unpoliced run denied")
		}
	})
}

// TestConfigurePreservesTokens: reapplying an unchanged QoS profile
// keeps the accumulated token level (the data plane reconfigures on
// every control-epoch bump, and a signaling storm must not refill the
// buckets for free); an actually changed profile starts full at the new
// depth.
func TestConfigurePreservesTokens(t *testing.T) {
	var ul UserLimiter
	ul.ConfigureUser(8*100_000, 0) // 100 KB/s → 3000 B burst floor
	ul.ConfigureBearer(0, 8*100_000, 0)
	now := int64(0)
	if !ul.Allow(now, true, 0, 2000) {
		t.Fatal("packet within burst denied")
	}
	// Same profile again — as rebuildPriv does after e.g. a handover.
	ul.ConfigureUser(8*100_000, 0)
	ul.ConfigureBearer(0, 8*100_000, 0)
	if got := ul.AMBRUp.Tokens(now); got != 1000 {
		t.Fatalf("AMBR tokens after unchanged reconfigure = %d, want 1000", got)
	}
	if got := ul.ExportLevels(now).BearerUp[0]; got != 1000 {
		t.Fatalf("bearer tokens after unchanged reconfigure = %d, want 1000", got)
	}
	// A genuine rate change starts the bucket full at the new depth.
	ul.ConfigureUser(8*1_000_000, 0) // 1 MB/s → 20000 B burst
	if got := ul.AMBRUp.Tokens(now); got != 20000 {
		t.Fatalf("AMBR tokens after rate change = %d, want 20000", got)
	}
}

// TestAllowRunMatchesPerPacket: an admitted run leaves the buckets in
// exactly the state N per-packet Allow calls would, for both the AMBR and
// a bearer MBR bucket.
func TestAllowRunMatchesPerPacket(t *testing.T) {
	directions(t, func(t *testing.T, uplink bool) {
		mk := func() *UserLimiter {
			var ul UserLimiter
			configure(&ul, uplink, 8*1_000_000, 1, 8*500_000) // 20 KB and 10 KB bursts
			return &ul
		}
		run, pp := mk(), mk()
		now := int64(0)
		const n, size = 10, 700

		if !run.AllowRun(now, uplink, 1, n*size) {
			t.Fatal("aggregate run denied")
		}
		for i := 0; i < n; i++ {
			if !pp.Allow(now, uplink, 1, size) {
				t.Fatalf("per-packet call %d denied", i)
			}
		}
		runAMBR, runMBR := run.buckets(uplink, 1)
		ppAMBR, ppMBR := pp.buckets(uplink, 1)
		if a, b := runAMBR.Tokens(now), ppAMBR.Tokens(now); a != b || a == 20000 {
			t.Fatalf("AMBR: run=%d per-packet=%d (burst 20000)", a, b)
		}
		if a, b := runMBR.Tokens(now), ppMBR.Tokens(now); a != b || a == 10000 {
			t.Fatalf("bearer MBR: run=%d per-packet=%d (burst 10000)", a, b)
		}
	})
}

// TestAllowRunBearerShortfallConsumesNothing pins the asymmetry the
// all-or-nothing contract exists for: per-packet Allow debits the AMBR
// even when the bearer bucket then denies, so a failed aggregate check
// must leave BOTH buckets untouched for the fallback to reproduce that
// exact partial-consumption behaviour.
func TestAllowRunBearerShortfallConsumesNothing(t *testing.T) {
	directions(t, func(t *testing.T, uplink bool) {
		mk := func() *UserLimiter {
			var ul UserLimiter
			// AMBR burst 20000 B — plenty; bearer burst 3000 B — the
			// bottleneck.
			configure(&ul, uplink, 8*1_000_000, 0, 8*100_000)
			return &ul
		}
		ul := mk()
		ambr, mbr := ul.buckets(uplink, 0)
		now := int64(0)

		if ul.AllowRun(now, uplink, 0, 5000) {
			t.Fatal("run beyond bearer burst admitted")
		}
		if got := ambr.Tokens(now); got != 20000 {
			t.Fatalf("AMBR debited on failed run: %d left, want 20000", got)
		}
		if got := mbr.Tokens(now); got != 3000 {
			t.Fatalf("bearer debited on failed run: %d left, want 3000", got)
		}
		// The fallback path then behaves exactly like pure per-packet
		// policing: each denied packet still costs AMBR tokens.
		ref := mk()
		refAMBR, _ := ref.buckets(uplink, 0)
		for i := 0; i < 5; i++ {
			a := ul.Allow(now, uplink, 0, 1000)
			b := ref.Allow(now, uplink, 0, 1000)
			if a != b {
				t.Fatalf("packet %d: fallback=%v reference=%v", i, a, b)
			}
		}
		if a, b := ambr.Tokens(now), refAMBR.Tokens(now); a != b || a != 15000 {
			t.Fatalf("AMBR state after fallback: %d vs reference %d, want 15000", a, b)
		}
	})
}
