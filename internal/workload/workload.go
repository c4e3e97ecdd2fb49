// Package workload generates the traffic and signaling loads of the
// paper's evaluation (§5): GTP-U encapsulated uplink packets and plain IP
// downlink packets across configurable user populations, packet sizes and
// uplink:downlink ratios (Table 2), plus signaling-event schedules
// (attach requests, S1 handovers) at controlled rates, and a device
// population model (always-on share, churn, IoT share; §7.3, §7.4).
package workload

import (
	"math/rand"

	"pepc/internal/gtp"
	"pepc/internal/pkt"
)

// Table 2: evaluation parameters and default values.
const (
	// DefaultUplinkRatio:DefaultDownlinkRatio is the uplink:downlink
	// traffic mix (1:3).
	DefaultUplinkRatio   = 1
	DefaultDownlinkRatio = 3
	// DefaultDownlinkSize is the downlink packet size in bytes.
	DefaultDownlinkSize = 64
	// DefaultUplinkSize is the uplink (inner) packet size in bytes.
	DefaultUplinkSize = 128
	// DefaultSignalingRate is signaling events per second.
	DefaultSignalingRate = 100_000
	// DefaultUsers is the user population.
	DefaultUsers = 1_000_000
)

// DefaultSignalingEvent is the default signaling event type.
const DefaultSignalingEvent = "attach request"

// User identifies one attached user's data-plane coordinates as the
// generator needs them.
type User struct {
	IMSI       uint64
	UplinkTEID uint32
	UEAddr     uint32
}

// TrafficConfig parameterizes packet generation.
type TrafficConfig struct {
	// UplinkSize/DownlinkSize are inner IP packet sizes in bytes
	// (minimum 28: IPv4 + UDP headers).
	UplinkSize   int
	DownlinkSize int
	// UplinkRatio:DownlinkRatio sets the direction mix of Next.
	UplinkRatio   int
	DownlinkRatio int
	// ENBAddr and CoreAddr form the outer GTP-U addressing.
	ENBAddr  uint32
	CoreAddr uint32
	// Burst emits this many consecutive packets per user before advancing
	// to the next one (eNodeBs and traffic generators emit per-user
	// bursts; flow-run coalescing in the data plane exploits them). 0/1
	// means one packet per user, the fully interleaved worst case.
	Burst int
	// Seed makes user selection deterministic.
	Seed int64
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.UplinkSize < pkt.IPv4HeaderLen+pkt.UDPHeaderLen {
		c.UplinkSize = DefaultUplinkSize
	}
	if c.DownlinkSize < pkt.IPv4HeaderLen+pkt.UDPHeaderLen {
		c.DownlinkSize = DefaultDownlinkSize
	}
	if c.UplinkRatio <= 0 {
		c.UplinkRatio = DefaultUplinkRatio
	}
	if c.DownlinkRatio < 0 {
		c.DownlinkRatio = DefaultDownlinkRatio
	}
	if c.ENBAddr == 0 {
		c.ENBAddr = pkt.IPv4Addr(192, 168, 0, 1)
	}
	if c.CoreAddr == 0 {
		c.CoreAddr = pkt.IPv4Addr(172, 16, 0, 1)
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
	return c
}

// TrafficGen produces packets for a set of users by stamping prebuilt
// templates — the per-packet cost is one bounded copy plus field patches,
// so generation never dominates what is being measured. Not safe for
// concurrent use; create one generator per driving thread.
type TrafficGen struct {
	cfg   TrafficConfig
	users []User
	pool  *pkt.Pool
	// cache fronts the pool with the generator's level of the two-level
	// allocator: one shared-pool interaction per half-cache of packets
	// (the generator is single-threaded by contract).
	cache *pkt.PoolCache

	upTmpl []byte // full outer+GTPU+inner template
	dnTmpl []byte // inner-only template

	rng     *rand.Rand
	idx     int
	burstAt int
	mixPos  int
	mixUp   int
	mixTot  int
}

// NewTrafficGen builds a generator over the given users.
func NewTrafficGen(cfg TrafficConfig, users []User) *TrafficGen {
	cfg = cfg.withDefaults()
	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	g := &TrafficGen{
		cfg:    cfg,
		users:  users,
		pool:   pool,
		cache:  pool.NewCache(pkt.DefaultCacheSize),
		rng:    rand.New(rand.NewSource(cfg.Seed + 1)),
		mixUp:  cfg.UplinkRatio,
		mixTot: cfg.UplinkRatio + cfg.DownlinkRatio,
	}
	g.upTmpl = buildUplinkTemplate(cfg)
	g.dnTmpl = buildDownlinkTemplate(cfg)
	return g
}

// Users returns the generator's population.
func (g *TrafficGen) Users() []User { return g.users }

func buildUplinkTemplate(cfg TrafficConfig) []byte {
	inner := make([]byte, cfg.UplinkSize)
	ip := pkt.IPv4{Length: uint16(cfg.UplinkSize), TTL: 64, Protocol: pkt.ProtoUDP,
		Src: 0 /* patched */, Dst: pkt.IPv4Addr(8, 8, 8, 8)}
	ip.SerializeTo(inner)
	u := pkt.UDP{SrcPort: 40000, DstPort: 80, Length: uint16(cfg.UplinkSize - pkt.IPv4HeaderLen)}
	u.SerializeTo(inner[pkt.IPv4HeaderLen:])
	// Wrap in outer headers once; per-packet we patch the TEID and the
	// inner source address.
	b := pkt.NewBuf(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	b.SetBytes(inner)
	if err := gtp.EncapGPDU(b, 0, cfg.ENBAddr, cfg.CoreAddr); err != nil {
		panic(err)
	}
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out
}

func buildDownlinkTemplate(cfg TrafficConfig) []byte {
	inner := make([]byte, cfg.DownlinkSize)
	ip := pkt.IPv4{Length: uint16(cfg.DownlinkSize), TTL: 64, Protocol: pkt.ProtoUDP,
		Src: pkt.IPv4Addr(8, 8, 8, 8), Dst: 0 /* patched */}
	ip.SerializeTo(inner)
	u := pkt.UDP{SrcPort: 80, DstPort: 40000, Length: uint16(cfg.DownlinkSize - pkt.IPv4HeaderLen)}
	u.SerializeTo(inner[pkt.IPv4HeaderLen:])
	return inner
}

// Offsets of the patched fields within the uplink template.
const (
	upTEIDOff     = pkt.IPv4HeaderLen + pkt.UDPHeaderLen + 4 // GTP-U TEID
	upInnerSrcOff = pkt.IPv4HeaderLen + pkt.UDPHeaderLen + gtp.HeaderLen + 12
)

// NextUplink emits one uplink packet for the next user (round robin).
func (g *TrafficGen) NextUplink() *pkt.Buf {
	u := g.nextUser()
	return g.UplinkFor(u)
}

// UplinkFor emits an uplink packet for a specific user.
func (g *TrafficGen) UplinkFor(u User) *pkt.Buf {
	b := g.cache.Get()
	if err := b.SetBytes(g.upTmpl); err != nil {
		panic(err)
	}
	data := b.Bytes()
	putU32(data[upTEIDOff:], u.UplinkTEID)
	putU32(data[upInnerSrcOff:], u.UEAddr)
	b.Meta.TEID = u.UplinkTEID
	b.Meta.Uplink = true
	return b
}

// NextDownlink emits one downlink packet for the next user.
func (g *TrafficGen) NextDownlink() *pkt.Buf {
	u := g.nextUser()
	return g.DownlinkFor(u)
}

// DownlinkFor emits a downlink packet for a specific user.
func (g *TrafficGen) DownlinkFor(u User) *pkt.Buf {
	b := g.cache.Get()
	if err := b.SetBytes(g.dnTmpl); err != nil {
		panic(err)
	}
	data := b.Bytes()
	putU32(data[16:], u.UEAddr) // inner dst
	b.Meta.UEIP = u.UEAddr
	return b
}

// Next emits the next packet honoring the uplink:downlink ratio,
// reporting the direction.
func (g *TrafficGen) Next() (*pkt.Buf, bool) {
	up := g.mixPos < g.mixUp
	g.mixPos++
	if g.mixPos >= g.mixTot {
		g.mixPos = 0
	}
	if up {
		return g.NextUplink(), true
	}
	return g.NextDownlink(), false
}

// nextUser cycles the population round robin, emitting cfg.Burst
// consecutive packets per user before advancing. Burst=1 touches every
// user's state in turn, the worst (most cache-hostile) access pattern,
// matching the paper's uniform distribution of traffic across devices;
// Burst>1 models per-user bursts as emitted by real eNodeBs, producing
// the flow runs that the data plane's run coalescing exploits.
func (g *TrafficGen) nextUser() User {
	u := g.users[g.idx]
	g.burstAt++
	if g.burstAt >= g.cfg.Burst {
		g.burstAt = 0
		g.idx++
		if g.idx >= len(g.users) {
			g.idx = 0
		}
	}
	return u
}

// ZipfUser returns a user drawn from a zipfian popularity distribution
// (skewed access patterns for cache-sensitivity experiments).
func (g *TrafficGen) ZipfUser(s float64) User {
	if s <= 1 {
		s = 1.2
	}
	z := rand.NewZipf(g.rng, s, 1, uint64(len(g.users)-1))
	return g.users[z.Uint64()]
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// --- Signaling schedules ---

// EventKind is a signaling event type.
type EventKind uint8

// Signaling event kinds.
const (
	EventAttach EventKind = iota
	EventS1Handover
	EventDetach
)

// Event is one scheduled signaling event.
type Event struct {
	Kind EventKind
	IMSI uint64
}

// SignalingGen produces signaling events uniformly across a population
// (§5.1: "the control updates are uniformly distributed across the number
// of user devices").
type SignalingGen struct {
	kind  EventKind
	users []User
	idx   int
	// enbSeq varies the handover target per event.
	enbSeq uint32
}

// NewSignalingGen builds a generator emitting kind events over users.
func NewSignalingGen(kind EventKind, users []User) *SignalingGen {
	return &SignalingGen{kind: kind, users: users}
}

// Next returns the next event.
func (sg *SignalingGen) Next() Event {
	u := sg.users[sg.idx]
	sg.idx++
	if sg.idx >= len(sg.users) {
		sg.idx = 0
	}
	return Event{Kind: sg.kind, IMSI: u.IMSI}
}

// NextHandoverTarget returns varying eNodeB endpoint parameters for a
// handover event.
func (sg *SignalingGen) NextHandoverTarget() (enbAddr, dlTEID, ecgi uint32) {
	sg.enbSeq++
	return pkt.IPv4Addr(192, 168, byte(sg.enbSeq>>8), byte(sg.enbSeq)),
		0x0200_0000 | sg.enbSeq, sg.enbSeq & 0xffff
}

// --- Population models (§7.3, §7.4) ---

// Population describes the device mix of an experiment.
type Population struct {
	Total int
	// AlwaysOnFraction of devices stay active.
	AlwaysOnFraction float64
	// ChurnPerSecond is the fraction of all devices becoming active (and
	// idle) per second (the paper's "low churn" 0.01, "high churn" 0.10).
	ChurnPerSecond float64
	// IoTFraction of devices are stateless-IoT (§7.4).
	IoTFraction float64
}

// AlwaysOn returns the count of always-on devices.
func (p Population) AlwaysOn() int {
	return int(float64(p.Total) * p.AlwaysOnFraction)
}

// ChurnPerTick returns how many devices churn in a tick of dt seconds.
func (p Population) ChurnPerTick(dt float64) int {
	return int(float64(p.Total) * p.ChurnPerSecond * dt)
}

// IoTCount returns the count of stateless-IoT devices.
func (p Population) IoTCount() int {
	return int(float64(p.Total) * p.IoTFraction)
}
