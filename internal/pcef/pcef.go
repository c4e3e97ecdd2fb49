// Package pcef implements the Policy and Charging Enforcement Function:
// "a match-action table, consisting of BPF programs over the 5-tuple and
// operator specified actions" (paper §4.2). Here the programs are direct
// 5-tuple filters (FilterSpec) evaluated on the flow the parse stage has
// already extracted. Rules are installed by the PCRF through the node
// proxy (or by the UPF for QER gates) onto the slice control side; the
// data thread takes one Snapshot per batch and applies the first
// matching rule's action.
package pcef

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pepc/internal/pkt"
)

// FilterSpec describes a 5-tuple match over an inner IPv4 flow (the
// packet as seen after GTP-U decapsulation). Zero-valued fields are
// wildcards. Addresses use CIDR-style prefix lengths; ports use inclusive
// ranges. The same type is a PCC rule's filter and a bearer's TFT.
type FilterSpec struct {
	// SrcAddr/DstAddr with prefix lengths; a prefix length of 0 matches
	// any address.
	SrcAddr   uint32
	SrcPrefix uint8
	DstAddr   uint32
	DstPrefix uint8

	// Proto of 0 matches any protocol.
	Proto uint8

	// Port ranges; a range of [0,0] matches any port. A port range only
	// matches TCP or UDP flows.
	SrcPortLo, SrcPortHi uint16
	DstPortLo, DstPortHi uint16
}

// Filter validation errors.
var (
	ErrBadPrefix    = errors.New("pcef: prefix length must be 0..32")
	ErrBadPortRange = errors.New("pcef: port range lo > hi")
)

// Validate rejects a prefix longer than 32 bits and a port range whose
// low end exceeds its high end.
func (spec FilterSpec) Validate() error {
	if spec.SrcPrefix > 32 || spec.DstPrefix > 32 {
		return ErrBadPrefix
	}
	if spec.SrcPortLo > spec.SrcPortHi || spec.DstPortLo > spec.DstPortHi {
		return ErrBadPortRange
	}
	return nil
}

// MatchFlow reports whether the parsed 5-tuple f matches the spec.
func (spec FilterSpec) MatchFlow(f pkt.Flow) bool {
	if spec.Proto != 0 && f.Proto != spec.Proto {
		return false
	}
	needsPorts := spec.SrcPortLo != 0 || spec.SrcPortHi != 0 || spec.DstPortLo != 0 || spec.DstPortHi != 0
	if needsPorts && f.Proto != pkt.ProtoTCP && f.Proto != pkt.ProtoUDP {
		return false
	}
	if spec.SrcPrefix > 0 {
		mask := prefixMask(spec.SrcPrefix)
		if f.Src&mask != spec.SrcAddr&mask {
			return false
		}
	}
	if spec.DstPrefix > 0 {
		mask := prefixMask(spec.DstPrefix)
		if f.Dst&mask != spec.DstAddr&mask {
			return false
		}
	}
	if spec.SrcPortLo != 0 || spec.SrcPortHi != 0 {
		if f.SrcPort < spec.SrcPortLo || f.SrcPort > spec.SrcPortHi {
			return false
		}
	}
	if spec.DstPortLo != 0 || spec.DstPortHi != 0 {
		if f.DstPort < spec.DstPortLo || f.DstPort > spec.DstPortHi {
			return false
		}
	}
	return true
}

// String renders the spec for diagnostics.
func (spec FilterSpec) String() string {
	return fmt.Sprintf("src=%s/%d dst=%s/%d proto=%d sport=%d-%d dport=%d-%d",
		pkt.FormatIPv4(spec.SrcAddr), spec.SrcPrefix,
		pkt.FormatIPv4(spec.DstAddr), spec.DstPrefix,
		spec.Proto, spec.SrcPortLo, spec.SrcPortHi, spec.DstPortLo, spec.DstPortHi)
}

func prefixMask(bits uint8) uint32 {
	if bits == 0 {
		return 0
	}
	return ^uint32(0) << (32 - bits)
}

// Action is what a matching rule does to a packet.
type Action uint8

// Actions.
const (
	// ActionAllow forwards the packet and counts it against the rule.
	ActionAllow Action = iota
	// ActionDrop discards the packet (gating).
	ActionDrop
	// ActionRateLimit forwards subject to the rule's rate limiter.
	ActionRateLimit
	// ActionMark rewrites the DSCP/TOS field for downstream QoS.
	ActionMark
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionAllow:
		return "allow"
	case ActionDrop:
		return "drop"
	case ActionRateLimit:
		return "rate-limit"
	case ActionMark:
		return "mark"
	}
	return "action(?)"
}

// Rule is one PCC (policy and charging control) rule.
type Rule struct {
	ID         uint32
	Precedence uint16 // lower evaluates first, like 3GPP PCC precedence
	Filter     FilterSpec
	Action     Action

	// RateBitsPerSec applies to ActionRateLimit.
	RateBitsPerSec uint64
	// DSCP applies to ActionMark.
	DSCP uint8
	// ChargingKey groups usage for offline charging (maps to the UE's
	// RuleBytes slot via the slice's rule installation).
	ChargingKey uint32
}

// Verdict is the classification result for one packet.
type Verdict struct {
	RuleID         uint32
	Action         Action
	ChargingKey    uint32
	DSCP           uint8
	RateBitsPerSec uint64
	Matched        bool
}

// Table errors.
var (
	ErrDuplicateRule = errors.New("pcef: rule id already installed")
	ErrUnknownRule   = errors.New("pcef: rule id not installed")
)

// Table is a PCEF match-action table. Installation happens on the control
// side: mu serializes writers, each of which builds a new rule slice and
// publishes it through an atomic pointer. The data side classifies
// against a Snapshot, which is one atomic load and takes no lock. With
// no rule matched, the verdict is the zero Verdict: allow, unmatched,
// charging key 0.
type Table struct {
	mu    sync.Mutex
	rules atomic.Pointer[[]*Rule] // sorted by precedence, then id; nil = none
	byID  map[uint32]*Rule        // guarded by mu
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byID: make(map[uint32]*Rule)}
}

// Install validates and adds a rule. The rule is evaluated in precedence
// order relative to existing rules.
func (t *Table) Install(r Rule) error {
	if err := r.Filter.Validate(); err != nil {
		return fmt.Errorf("pcef: rule %d: %w", r.ID, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byID[r.ID]; dup {
		return ErrDuplicateRule
	}
	rc := r // private copy
	t.byID[r.ID] = &rc
	// Copy-on-write: readers hold the old slice without blocking.
	old := t.load()
	rules := make([]*Rule, 0, len(old)+1)
	rules = append(rules, old...)
	rules = append(rules, &rc)
	sort.SliceStable(rules, func(i, j int) bool {
		if rules[i].Precedence != rules[j].Precedence {
			return rules[i].Precedence < rules[j].Precedence
		}
		return rules[i].ID < rules[j].ID
	})
	t.rules.Store(&rules)
	return nil
}

// Remove uninstalls a rule by id.
func (t *Table) Remove(id uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		return ErrUnknownRule
	}
	delete(t.byID, id)
	old := t.load()
	rules := make([]*Rule, 0, len(old)-1)
	for _, r := range old {
		if r.ID != id {
			rules = append(rules, r)
		}
	}
	t.rules.Store(&rules)
	return nil
}

// load returns the published rule slice (nil before the first install).
func (t *Table) load() []*Rule {
	if p := t.rules.Load(); p != nil {
		return *p
	}
	return nil
}

// Len returns the installed rule count.
func (t *Table) Len() int { return len(t.load()) }

// RuleSet is an immutable point-in-time view of the table. The rule
// slice is copy-on-write (Install/Remove publish a new one wholesale), so
// a snapshot stays valid indefinitely and classifies without any
// locking — the staged data plane takes one Snapshot per batch, and
// taking it is a single atomic load.
type RuleSet struct {
	rules []*Rule
}

// Snapshot captures the current rules.
func (t *Table) Snapshot() RuleSet { return RuleSet{rules: t.load()} }

// ClassifyFlow matches a parsed 5-tuple against the snapshot, lock-free:
// the first matching rule's verdict, or the zero Verdict when none does.
func (rs RuleSet) ClassifyFlow(f pkt.Flow) Verdict {
	for _, r := range rs.rules {
		if r.Filter.MatchFlow(f) {
			return verdictFor(r)
		}
	}
	return Verdict{}
}

func verdictFor(r *Rule) Verdict {
	return Verdict{
		RuleID:         r.ID,
		Action:         r.Action,
		ChargingKey:    r.ChargingKey,
		DSCP:           r.DSCP,
		RateBitsPerSec: r.RateBitsPerSec,
		Matched:        true,
	}
}
