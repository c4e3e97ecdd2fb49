// Package qos implements the QoS primitives the EPC data plane enforces
// per bearer and per user: token-bucket rate limiters for MBR/AMBR
// policing and GBR admission, and priority mapping from QCI values.
// Everything here runs on the data thread's fast path, so the limiter is
// integer-only, allocation free, and driven by caller-supplied monotonic
// timestamps rather than time.Now (the pipeline stamps packets once per
// batch).
package qos

import "errors"

// ErrBadRate reports a non-positive rate configuration.
var ErrBadRate = errors.New("qos: rate and burst must be positive")

// TokenBucket is a classic token bucket: Rate tokens (bytes) accrue per
// second up to Burst. It is not internally synchronized; each bucket
// belongs to exactly one data thread.
type TokenBucket struct {
	rate   uint64 // tokens per second (bytes/s)
	burst  uint64 // bucket depth in bytes
	tokens uint64
	last   int64 // monotonic nanos of the last refill
}

// NewTokenBucket returns a full bucket enforcing rate bytes/s with the
// given burst depth in bytes.
func NewTokenBucket(rate, burst uint64) (*TokenBucket, error) {
	if rate == 0 || burst == 0 {
		return nil, ErrBadRate
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}, nil
}

// Configure atomically replaces rate and burst (control updates via PCRF),
// clamping stored tokens to the new depth. Call only from the owning
// thread.
func (tb *TokenBucket) Configure(rate, burst uint64) error {
	if rate == 0 || burst == 0 {
		return ErrBadRate
	}
	tb.rate = rate
	tb.burst = burst
	if tb.tokens > burst {
		tb.tokens = burst
	}
	return nil
}

// Allow consumes n bytes of budget at time now (monotonic nanos),
// reporting whether the packet conforms. Non-conforming packets consume
// nothing (strict policing, as the PCEF gate requires).
func (tb *TokenBucket) Allow(now int64, n uint64) bool {
	tb.refill(now)
	if tb.tokens < n {
		return false
	}
	tb.tokens -= n
	return true
}

// Tokens reports the current budget after refilling at now.
func (tb *TokenBucket) Tokens(now int64) uint64 {
	tb.refill(now)
	return tb.tokens
}

// Rate reports the bucket's rate in bytes/s; 0 means it does not police.
func (tb *TokenBucket) Rate() uint64 { return tb.rate }

func (tb *TokenBucket) refill(now int64) {
	if now <= tb.last {
		return
	}
	elapsed := uint64(now - tb.last)
	tb.last = now
	// tokens += rate * elapsed / 1e9 without overflow for rates up to
	// ~18 Gb/s and gaps up to ~1s; split the multiply for larger gaps.
	if elapsed > 1_000_000_000 {
		whole := elapsed / 1_000_000_000
		tb.credit(tb.rate * whole)
		elapsed %= 1_000_000_000
	}
	tb.credit(tb.rate/1_000_000_000*elapsed + (tb.rate%1_000_000_000)*elapsed/1_000_000_000)
}

func (tb *TokenBucket) credit(n uint64) {
	tb.tokens += n
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}

// BitsPerSecond converts a bits/s rate (how 3GPP expresses MBR/AMBR) to
// the bucket's bytes/s unit.
func BitsPerSecond(bps uint64) uint64 { return bps / 8 }

// Priority maps a QCI value to a scheduling priority (lower is more
// urgent), following the 3GPP 23.203 standardized characteristics table.
func Priority(qci uint8) uint8 {
	switch qci {
	case 1: // conversational voice
		return 2
	case 2: // conversational video
		return 4
	case 3: // real-time gaming
		return 3
	case 4: // buffered video
		return 5
	case 5: // IMS signaling
		return 1
	case 6:
		return 6
	case 7:
		return 7
	case 8:
		return 8
	default: // 9 and operator-specific: best effort
		return 9
	}
}

// IsGBR reports whether a QCI denotes a guaranteed-bit-rate class.
func IsGBR(qci uint8) bool { return qci >= 1 && qci <= 4 }

// UserLimiter bundles the per-user policing state the data thread keeps
// alongside each UE: aggregate (AMBR) buckets per direction plus one MBR
// bucket per bearer. Sized for the fast path: fixed arrays, no maps. The
// AMBR pair is inline, so a limiter embedded in per-user state is policed
// without a pointer chase; the per-bearer buckets, which few users
// configure, sit behind a pointer allocated by the first ConfigureBearer
// with a non-zero MBR. The zero value polices nothing.
type UserLimiter struct {
	// configured is set by ConfigureUser; the data plane skips policing
	// while it is clear. It and bearers lead the struct so an embedding
	// can place both on the cache line before the AMBR pair.
	configured bool
	bearers    *bearerBuckets
	AMBRUp     TokenBucket
	AMBRDown   TokenBucket
}

// bearerBuckets are the per-bearer MBR buckets, indexed like the UE's
// bearer array (sized as the state package's MaxBearers).
type bearerBuckets struct {
	up, down [4]TokenBucket
}

// Configured reports whether ConfigureUser has run since the limiter was
// zeroed.
func (ul *UserLimiter) Configured() bool { return ul.configured }

// DefaultBurstBytes sizes bucket depth when the operator does not
// configure one: 20 ms at line rate, a common policing default.
func DefaultBurstBytes(rateBytesPerSec uint64) uint64 {
	b := rateBytesPerSec / 50
	if b < 3000 {
		b = 3000 // at least two full-size frames
	}
	return b
}

// configurePreserving applies (rate, burst) only when they actually
// changed, starting a changed bucket full; an unchanged bucket keeps its
// accumulated token level. The data plane rebuilds limiters whenever a
// user's control epoch advances, and most control writes (handovers,
// attach refreshes) leave the QoS profile untouched — a signaling storm
// must not turn into a stream of free bucket refills that defeats
// policing.
func (tb *TokenBucket) configurePreserving(rate, burst uint64) {
	if tb.rate == rate && tb.burst == burst {
		return
	}
	tb.rate = rate
	tb.burst = burst
	tb.tokens = burst
}

// Levels is a flat export of a UserLimiter's current token levels, in
// bucket bytes: the state a migrating user carries so policing budget is
// conserved across the move (a user must not earn a fresh burst of
// tokens by migrating, nor lose budget it had accrued).
type Levels struct {
	AMBRUp     uint64
	AMBRDown   uint64
	BearerUp   [4]uint64
	BearerDown [4]uint64
}

// ExportLevels refills every bucket at now and returns the levels; a
// bearer bucket that was never configured reports 0.
// Owning thread only (migration extract runs after the data-plane
// fence).
func (ul *UserLimiter) ExportLevels(now int64) Levels {
	lv := Levels{AMBRUp: ul.AMBRUp.Tokens(now), AMBRDown: ul.AMBRDown.Tokens(now)}
	if b := ul.bearers; b != nil {
		for i := range b.up {
			lv.BearerUp[i] = b.up[i].Tokens(now)
			lv.BearerDown[i] = b.down[i].Tokens(now)
		}
	}
	return lv
}

// SeedLevels overwrites every bucket's token level (clamped to its
// configured depth) and stamps its refill clock to now, so a seeded
// bucket resumes accruing from the seed rather than treating the epoch
// gap as elapsed time and instantly refilling. Call after Configure*
// on the owning thread, before the limiter serves packets. Bearer levels
// are ignored when no bearer MBR is configured: those buckets hold 0.
func (ul *UserLimiter) SeedLevels(lv Levels, now int64) {
	ul.AMBRUp.seed(lv.AMBRUp, now)
	ul.AMBRDown.seed(lv.AMBRDown, now)
	if b := ul.bearers; b != nil {
		for i := range b.up {
			b.up[i].seed(lv.BearerUp[i], now)
			b.down[i].seed(lv.BearerDown[i], now)
		}
	}
}

func (tb *TokenBucket) seed(tokens uint64, now int64) {
	if tokens > tb.burst {
		tokens = tb.burst
	}
	tb.tokens = tokens
	tb.last = now
}

// configureBits polices at a bits/s rate with the default burst; 0
// disables the bucket.
func (tb *TokenBucket) configureBits(bits uint64) {
	if bits == 0 {
		tb.rate = 0
		return
	}
	r := BitsPerSecond(bits)
	tb.configurePreserving(r, DefaultBurstBytes(r))
}

// ConfigureUser initializes the limiter from AMBR values in bits/s.
// Zero-valued rates disable the corresponding bucket (no policing).
// Reapplying an unchanged configuration preserves token levels (see
// configurePreserving).
func (ul *UserLimiter) ConfigureUser(ambrUpBits, ambrDownBits uint64) {
	ul.AMBRUp.configureBits(ambrUpBits)
	ul.AMBRDown.configureBits(ambrDownBits)
	ul.configured = true
}

// ConfigureBearer sets bearer i's MBR policing in bits/s (0 disables).
// Reapplying an unchanged configuration preserves token levels. The
// per-bearer buckets are allocated on the first non-zero MBR.
func (ul *UserLimiter) ConfigureBearer(i int, mbrUpBits, mbrDownBits uint64) {
	if i < 0 || i >= len(bearerBuckets{}.up) {
		return
	}
	if ul.bearers == nil {
		if mbrUpBits == 0 && mbrDownBits == 0 {
			return
		}
		ul.bearers = &bearerBuckets{}
	}
	ul.bearers.up[i].configureBits(mbrUpBits)
	ul.bearers.down[i].configureBits(mbrDownBits)
}

// buckets returns the buckets policing a packet on bearer i in the given
// direction: the AMBR and bearer i's MBR, each nil when it does not
// police (rate 0, or i out of range).
func (ul *UserLimiter) buckets(uplink bool, i int) (ambr, bearer *TokenBucket) {
	ambr = &ul.AMBRDown
	if uplink {
		ambr = &ul.AMBRUp
	}
	if ambr.rate == 0 {
		ambr = nil
	}
	if b := ul.bearers; b != nil && i >= 0 && i < len(b.up) {
		bearer = &b.down[i]
		if uplink {
			bearer = &b.up[i]
		}
		if bearer.rate == 0 {
			bearer = nil
		}
	}
	return ambr, bearer
}

// Allow polices one packet of n bytes on bearer i in the given
// direction. The AMBR is debited even when the bearer bucket then denies.
func (ul *UserLimiter) Allow(now int64, uplink bool, i int, n uint64) bool {
	ambr, bearer := ul.buckets(uplink, i)
	if ambr != nil && !ambr.Allow(now, n) {
		return false
	}
	return bearer == nil || bearer.Allow(now, n)
}

// AllowRun polices a run of packets totalling n bytes on bearer i in one
// aggregate operation, all or nothing: when both buckets hold n tokens
// the whole run conforms and n is debited from each, matching what
// per-packet policing would have done; when either bucket is short
// NOTHING is consumed and the caller must fall back to per-packet Allow,
// which reproduces the exact partial-consumption semantics.
func (ul *UserLimiter) AllowRun(now int64, uplink bool, i int, n uint64) bool {
	ambr, bearer := ul.buckets(uplink, i)
	if ambr != nil {
		ambr.refill(now)
		if ambr.tokens < n {
			return false
		}
	}
	if bearer != nil {
		bearer.refill(now)
		if bearer.tokens < n {
			return false
		}
	}
	if ambr != nil {
		ambr.tokens -= n
	}
	if bearer != nil {
		bearer.tokens -= n
	}
	return true
}

// AllowUplinkRun is AllowRun for the uplink direction.
func (ul *UserLimiter) AllowUplinkRun(now int64, i int, n uint64) bool {
	return ul.AllowRun(now, true, i, n)
}
