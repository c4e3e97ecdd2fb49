package core

import (
	"errors"
	"sync/atomic"
	"time"

	"pepc/internal/diameter"
	"pepc/internal/fault"
	"pepc/internal/hss"
	"pepc/internal/pcef"
	"pepc/internal/pcrf"
)

// Proxy is the PEPC node's backend gateway (§3.3): it speaks S6a toward
// the HSS on behalf of the slices' control threads (the role the MME
// played) and Gx toward the PCRF (the role the P-GW played). One proxy
// serves every slice on the node.
//
// Every round trip can be bounded by a CallPolicy: a per-request
// deadline, bounded retries with exponential backoff plus deterministic
// jitter, and a per-backend circuit breaker that short-circuits calls
// while the backend is dark so control threads shed load in microseconds
// instead of stacking deadlines. Without a policy (the default) the
// legacy unbounded path is used, byte-for-byte and allocation-for-
// allocation identical to before.
type Proxy struct {
	hssHandler  diameter.Handler
	pcrfHandler diameter.Handler

	hopByHop atomic.Uint32
	endToEnd atomic.Uint32

	// policy is the active call policy; nil selects the legacy
	// no-deadline path. Swappable at runtime (tests flip it mid-storm).
	policy atomic.Pointer[CallPolicy]

	// s6aFaults/gxFaults optionally wrap the respective backend with a
	// fault injector (drop/delay/error-answer per request).
	s6aFaults atomic.Pointer[fault.Injector]
	gxFaults  atomic.Pointer[fault.Injector]

	// Per-backend breaker state.
	s6aBreaker breaker
	gxBreaker  breaker

	// jitterSeq drives the deterministic backoff jitter.
	jitterSeq atomic.Uint64

	// Requests counts backend exchanges, for control-plane accounting.
	Requests atomic.Uint64
	// Retries counts re-sent requests after a timeout or transport error.
	Retries atomic.Uint64
	// Timeouts counts exchanges abandoned at the deadline.
	Timeouts atomic.Uint64
	// BreakerOpens counts breaker transitions to open.
	BreakerOpens atomic.Uint64
	// ShortCircuits counts calls rejected instantly by an open breaker.
	ShortCircuits atomic.Uint64
}

// Proxy errors.
var (
	ErrNoBackend   = errors.New("core: proxy backend not configured")
	ErrBackendFail = errors.New("core: backend returned failure")
	// ErrBackendDown is returned without a wire exchange while a
	// backend's circuit breaker is open.
	ErrBackendDown = errors.New("core: backend circuit open")
)

// CallPolicy bounds a Diameter round trip. The zero Deadline disables
// the deadline (but retries/breaker still apply); a nil policy on the
// proxy disables everything.
type CallPolicy struct {
	// Deadline bounds one request-answer exchange.
	Deadline time.Duration
	// MaxRetries is the number of re-sends after the first attempt.
	MaxRetries int
	// Backoff is the base delay before the first retry; it doubles per
	// attempt up to BackoffMax, with deterministic jitter of up to half
	// the step added.
	Backoff    time.Duration
	BackoffMax time.Duration
	// BreakerThreshold opens the circuit after this many consecutive
	// failed calls (each call = all its retries). 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker short-circuits calls
	// before admitting a half-open probe.
	BreakerCooldown time.Duration
}

// DefaultCallPolicy returns the tuned production policy: tight deadline
// (in-process backends answer in microseconds; a dark backend should
// cost milliseconds, not seconds), two retries, breaker after four
// consecutive failures.
func DefaultCallPolicy() CallPolicy {
	return CallPolicy{
		Deadline:         20 * time.Millisecond,
		MaxRetries:       2,
		Backoff:          500 * time.Microsecond,
		BackoffMax:       8 * time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  25 * time.Millisecond,
	}
}

// breaker is a consecutive-failure circuit breaker. Failures below the
// threshold pass through; at the threshold the circuit opens for the
// cooldown, during which calls short-circuit. The first call after the
// cooldown is the half-open probe: success closes the circuit, failure
// reopens it immediately.
type breaker struct {
	fails     atomic.Uint32
	openUntil atomic.Int64 // unix nanos; 0 = closed
}

func (b *breaker) allow(pol *CallPolicy) bool {
	if pol.BreakerThreshold <= 0 {
		return true
	}
	until := b.openUntil.Load()
	return until == 0 || time.Now().UnixNano() >= until
}

// open reports whether the breaker currently short-circuits.
func (b *breaker) open() bool {
	until := b.openUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

func (b *breaker) success() {
	b.fails.Store(0)
	b.openUntil.Store(0)
}

// fail records a failed call; it reports whether the circuit (re)opened.
func (b *breaker) fail(pol *CallPolicy) bool {
	if pol.BreakerThreshold <= 0 {
		return false
	}
	now := time.Now().UnixNano()
	if until := b.openUntil.Load(); until != 0 && now >= until {
		// Half-open probe failed: reopen for another cooldown.
		b.openUntil.Store(now + int64(pol.BreakerCooldown))
		return true
	}
	if int(b.fails.Add(1)) >= pol.BreakerThreshold {
		b.fails.Store(0)
		b.openUntil.Store(now + int64(pol.BreakerCooldown))
		return true
	}
	return false
}

// NewProxy wires the proxy to its backends. Handlers are typically
// *hss.HSS and *pcrf.PCRF in process; over a socket they would be
// diameter transports — the message path is identical either way because
// diameter.Call round-trips the wire encoding.
func NewProxy(hssHandler, pcrfHandler diameter.Handler) *Proxy {
	return &Proxy{hssHandler: hssHandler, pcrfHandler: pcrfHandler}
}

// SetPolicy installs (or, with a zero policy, keeps) the call policy.
// Safe to call concurrently with in-flight requests; they finish under
// the policy they started with.
func (p *Proxy) SetPolicy(pol CallPolicy) {
	p.policy.Store(&pol)
}

// SetS6aFaults installs a fault injector on the HSS path (nil removes).
func (p *Proxy) SetS6aFaults(inj *fault.Injector) { p.s6aFaults.Store(inj) }

// SetGxFaults installs a fault injector on the PCRF path (nil removes).
func (p *Proxy) SetGxFaults(inj *fault.Injector) { p.gxFaults.Store(inj) }

// GxAvailable reports whether the Gx breaker admits calls — the control
// thread's gate for repairing degraded attaches after a PCRF outage.
func (p *Proxy) GxAvailable() bool { return !p.gxBreaker.open() }

// ProxyStats is a snapshot of the proxy's robustness counters.
type ProxyStats struct {
	Requests      uint64
	Retries       uint64
	Timeouts      uint64
	BreakerOpens  uint64
	ShortCircuits uint64
}

// Stats snapshots the proxy counters (any thread).
func (p *Proxy) Stats() ProxyStats {
	return ProxyStats{
		Requests:      p.Requests.Load(),
		Retries:       p.Retries.Load(),
		Timeouts:      p.Timeouts.Load(),
		BreakerOpens:  p.BreakerOpens.Load(),
		ShortCircuits: p.ShortCircuits.Load(),
	}
}

func (p *Proxy) ids() (uint32, uint32) {
	return p.hopByHop.Add(1), p.endToEnd.Add(1)
}

// faultedHandler interposes an injector between the proxy and a backend:
// a drop holds the request past the caller's deadline (or fails outright
// with no policy), a delay answers late, an error answers
// DIAMETER_UNABLE_TO_COMPLY without touching the backend.
type faultedHandler struct {
	h    diameter.Handler
	inj  *fault.Injector
	hold time.Duration // how long a dropped request blocks; 0 = fail fast
}

func (f *faultedHandler) Handle(req *diameter.Message) (*diameter.Message, error) {
	if f.inj.Fire(fault.DiameterDrop) {
		if f.hold > 0 {
			time.Sleep(f.hold)
		}
		return nil, fault.ErrInjected
	}
	if d := f.inj.FireDelay(fault.DiameterDelay); d > 0 {
		time.Sleep(d)
	}
	if f.inj.Fire(fault.DiameterError) {
		return req.Answer(diameter.ResultUnableToComply), nil
	}
	return f.h.Handle(req)
}

// backoff returns the delay before retry attempt (0-based): exponential
// from the base, capped, plus deterministic jitter of up to half the
// step derived from the proxy-wide jitter sequence — decorrelating
// retry storms without a global RNG.
func (p *Proxy) backoff(pol *CallPolicy, attempt int) time.Duration {
	d := pol.Backoff
	if d <= 0 {
		return 0
	}
	for i := 0; i < attempt && d < pol.BackoffMax; i++ {
		d *= 2
	}
	if pol.BackoffMax > 0 && d > pol.BackoffMax {
		d = pol.BackoffMax
	}
	j := fault.Hash64(p.jitterSeq.Add(1))
	return d + time.Duration(j%uint64(d/2+1))
}

// roundTrip performs one policy-governed Diameter exchange against a
// backend: breaker admission, deadline-bounded attempts with backoff
// between them, and breaker accounting. A non-nil error never carries an
// answer. With no policy installed it degenerates to diameter.Call.
func (p *Proxy) roundTrip(h diameter.Handler, br *breaker, inj *fault.Injector, req *diameter.Message) (*diameter.Message, error) {
	pol := p.policy.Load()
	if inj != nil {
		var hold time.Duration
		if pol != nil && pol.Deadline > 0 {
			hold = 2 * pol.Deadline // ensure a drop trips the deadline
		}
		h = &faultedHandler{h: h, inj: inj, hold: hold}
	}
	if pol == nil {
		return diameter.Call(h, req)
	}
	if !br.allow(pol) {
		p.ShortCircuits.Add(1)
		return nil, ErrBackendDown
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		ans, err := diameter.CallTimeout(h, req, pol.Deadline)
		if err == nil {
			// Any decoded answer — including an explicit rejection the
			// caller will map to ErrBackendFail — proves the backend
			// alive: close the breaker.
			br.success()
			return ans, nil
		}
		if errors.Is(err, diameter.ErrDeadline) {
			p.Timeouts.Add(1)
		}
		lastErr = err
		if attempt >= pol.MaxRetries {
			break
		}
		p.Retries.Add(1)
		if d := p.backoff(pol, attempt); d > 0 {
			time.Sleep(d)
		}
	}
	if br.fail(pol) {
		p.BreakerOpens.Add(1)
	}
	return nil, lastErr
}

// callS6a runs one exchange against the HSS under the active policy.
func (p *Proxy) callS6a(req *diameter.Message) (*diameter.Message, error) {
	return p.roundTrip(p.hssHandler, &p.s6aBreaker, p.s6aFaults.Load(), req)
}

// callGx runs one exchange against the PCRF under the active policy.
func (p *Proxy) callGx(req *diameter.Message) (*diameter.Message, error) {
	return p.roundTrip(p.pcrfHandler, &p.gxBreaker, p.gxFaults.Load(), req)
}

// Authenticate runs the S6a Authentication-Information exchange and
// returns the vector for the attach challenge.
func (p *Proxy) Authenticate(imsi uint64) (hss.Vector, error) {
	if p.hssHandler == nil {
		return hss.Vector{}, ErrNoBackend
	}
	p.Requests.Add(1)
	hbh, e2e := p.ids()
	req := diameter.NewRequest(diameter.CmdAuthenticationInformation, diameter.AppS6a, hbh, e2e,
		diameter.U64AVP(diameter.AVPUserName, imsi))
	ans, err := p.callS6a(req)
	if err != nil {
		return hss.Vector{}, err
	}
	if ans.ResultCode() != diameter.ResultSuccess {
		return hss.Vector{}, ErrBackendFail
	}
	return hss.ParseVectorAVP(ans)
}

// AuthenticateBatch coalesces the Authentication-Information exchange
// for several users into a single S6a round-trip: one AIR carrying one
// User-Name AVP per IMSI, one AIA carrying the vectors in order (filled
// into out, which must be len(imsis)). This is the control-plane batch
// drain's amortization of backend latency — one proxy request per
// coalesced procedure run instead of one per procedure.
func (p *Proxy) AuthenticateBatch(imsis []uint64, out []hss.Vector) error {
	if p.hssHandler == nil {
		return ErrNoBackend
	}
	if len(imsis) != len(out) {
		return errors.New("core: AuthenticateBatch length mismatch")
	}
	p.Requests.Add(1)
	hbh, e2e := p.ids()
	avps := make([]diameter.AVP, len(imsis))
	for i, imsi := range imsis {
		avps[i] = diameter.U64AVP(diameter.AVPUserName, imsi)
	}
	req := diameter.NewRequest(diameter.CmdAuthenticationInformation, diameter.AppS6a, hbh, e2e, avps...)
	ans, err := p.callS6a(req)
	if err != nil {
		return err
	}
	if ans.ResultCode() != diameter.ResultSuccess {
		return ErrBackendFail
	}
	return hss.ParseVectorAVPsInto(ans, out)
}

// UpdateLocation runs the S6a Update-Location exchange and returns the
// subscribed AMBR profile.
func (p *Proxy) UpdateLocation(imsi uint64) (ambrUp, ambrDown uint64, err error) {
	if p.hssHandler == nil {
		return 0, 0, ErrNoBackend
	}
	p.Requests.Add(1)
	hbh, e2e := p.ids()
	req := diameter.NewRequest(diameter.CmdUpdateLocation, diameter.AppS6a, hbh, e2e,
		diameter.U64AVP(diameter.AVPUserName, imsi))
	ans, err := p.callS6a(req)
	if err != nil {
		return 0, 0, err
	}
	if ans.ResultCode() != diameter.ResultSuccess {
		return 0, 0, ErrBackendFail
	}
	sd, ok := ans.Find(diameter.AVPSubscriptionData)
	if !ok {
		return 0, 0, nil
	}
	subs, err := sd.SubAVPs()
	if err != nil {
		return 0, 0, err
	}
	for _, a := range subs {
		switch a.Code {
		case diameter.AVPAMBRUplink:
			if v, err := a.Uint64(); err == nil {
				ambrUp = v
			}
		case diameter.AVPAMBRDownlink:
			if v, err := a.Uint64(); err == nil {
				ambrDown = v
			}
		}
	}
	return ambrUp, ambrDown, nil
}

// EstablishGxSession opens the Gx session for a user and returns the PCC
// rules the PCRF wants installed.
func (p *Proxy) EstablishGxSession(imsi uint64) ([]pcef.Rule, error) {
	return p.EstablishGxSessionInto(imsi, nil)
}

// EstablishGxSessionInto is EstablishGxSession appending the installed
// rules into a caller-provided scratch slice (typically the control
// plane's preallocated rule buffer), avoiding a per-attach allocation.
func (p *Proxy) EstablishGxSessionInto(imsi uint64, buf []pcef.Rule) ([]pcef.Rule, error) {
	if p.pcrfHandler == nil {
		return nil, nil // no PCRF: attach proceeds with default policy
	}
	p.Requests.Add(1)
	hbh, e2e := p.ids()
	req := diameter.NewRequest(diameter.CmdCreditControl, diameter.AppGx, hbh, e2e,
		diameter.U64AVP(diameter.AVPUserName, imsi),
		diameter.U32AVP(diameter.AVPCCRequestType, pcrf.CCRInitial))
	ans, err := p.callGx(req)
	if err != nil {
		return nil, err
	}
	if ans.ResultCode() != diameter.ResultSuccess {
		return nil, ErrBackendFail
	}
	return pcrf.ParseRuleInstallsAppend(ans, buf)
}

// ReportUsage sends a Gx usage update.
func (p *Proxy) ReportUsage(imsi uint64, totalBytes uint64) error {
	if p.pcrfHandler == nil {
		return nil
	}
	p.Requests.Add(1)
	hbh, e2e := p.ids()
	req := diameter.NewRequest(diameter.CmdCreditControl, diameter.AppGx, hbh, e2e,
		diameter.U64AVP(diameter.AVPUserName, imsi),
		diameter.U32AVP(diameter.AVPCCRequestType, pcrf.CCRUpdate),
		diameter.U64AVP(diameter.AVPUsedServiceUnit, totalBytes))
	ans, err := p.callGx(req)
	if err != nil {
		return err
	}
	if ans.ResultCode() != diameter.ResultSuccess {
		return ErrBackendFail
	}
	return nil
}

// TerminateGxSessionBatch closes the Gx sessions of a detach batch in
// one CCR-T round-trip carrying one User-Name AVP per user.
func (p *Proxy) TerminateGxSessionBatch(imsis []uint64) error {
	if p.pcrfHandler == nil || len(imsis) == 0 {
		return nil
	}
	p.Requests.Add(1)
	hbh, e2e := p.ids()
	avps := make([]diameter.AVP, 0, len(imsis)+1)
	for _, imsi := range imsis {
		avps = append(avps, diameter.U64AVP(diameter.AVPUserName, imsi))
	}
	avps = append(avps, diameter.U32AVP(diameter.AVPCCRequestType, pcrf.CCRTermination))
	req := diameter.NewRequest(diameter.CmdCreditControl, diameter.AppGx, hbh, e2e, avps...)
	ans, err := p.callGx(req)
	if err != nil {
		return err
	}
	if ans.ResultCode() != diameter.ResultSuccess {
		return ErrBackendFail
	}
	return nil
}
