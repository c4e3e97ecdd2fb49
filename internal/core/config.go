package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"

	"pepc/internal/pcef"
	"pepc/internal/pkt"
)

// Operator configuration (§3.3: the scheduler "instantiates PEPC slices
// based on a given operator configuration"; Listing 1's EpcConfig). The
// JSON form is what cmd/pepcd -config loads.

// OperatorConfig describes a node: its slices and the PCC rules
// pre-installed into each slice's PCEF.
type OperatorConfig struct {
	// Slices to instantiate, in order.
	Slices []SliceSpec `json:"slices"`
}

// SliceSpec is the operator-facing slice description.
type SliceSpec struct {
	// ID must be unique within the node (1..MaxSliceID).
	ID int `json:"id"`
	// Users hints the expected population for table sizing.
	Users int `json:"users,omitempty"`
	// SyncEvery overrides the data plane's update batching interval.
	SyncEvery int `json:"sync_every,omitempty"`
	// IoTPoolSize reserves that many stateless-IoT TEIDs (§4.2); 0
	// disables the pool.
	IoTPoolSize int `json:"iot_pool_size,omitempty"`
	// CoreAddr is the slice's data-plane address in dotted-quad form;
	// empty picks a default derived from the slice id.
	CoreAddr string `json:"core_addr,omitempty"`
	// Rules are pre-installed PCC rules.
	Rules []RuleSpec `json:"rules,omitempty"`
}

// RuleSpec is the JSON form of a PCC rule.
type RuleSpec struct {
	ID         uint32 `json:"id"`
	Precedence uint16 `json:"precedence"`
	// Action: "allow", "drop", "rate-limit" or "mark".
	Action string `json:"action"`
	// RateMbps applies to rate-limit.
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// DSCP applies to mark.
	DSCP uint8 `json:"dscp,omitempty"`
	// ChargingKey groups usage for charging.
	ChargingKey uint32 `json:"charging_key,omitempty"`
	// Filter fields; zero values are wildcards.
	Proto     string `json:"proto,omitempty"` // "tcp", "udp", "icmp"
	SrcCIDR   string `json:"src_cidr,omitempty"`
	DstCIDR   string `json:"dst_cidr,omitempty"`
	SrcPortLo uint16 `json:"src_port_lo,omitempty"`
	SrcPortHi uint16 `json:"src_port_hi,omitempty"`
	DstPortLo uint16 `json:"dst_port_lo,omitempty"`
	DstPortHi uint16 `json:"dst_port_hi,omitempty"`
}

// LoadOperatorConfig parses a JSON operator configuration.
func LoadOperatorConfig(r io.Reader) (OperatorConfig, error) {
	var cfg OperatorConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("core: parsing operator config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return cfg, fmt.Errorf("core: parsing operator config: data after the top-level object")
	}
	if len(cfg.Slices) == 0 {
		return cfg, fmt.Errorf("core: operator config has no slices")
	}
	ids := make([]int, len(cfg.Slices))
	for i, sp := range cfg.Slices {
		if sp.ID <= 0 {
			return cfg, fmt.Errorf("core: slice %d: id must be >= 1", i)
		}
		ids[i] = sp.ID
		if sp.CoreAddr != "" {
			if _, err := parseIPv4(sp.CoreAddr); err != nil {
				return cfg, fmt.Errorf("core: slice %d core_addr: %w", sp.ID, err)
			}
		}
		for _, rs := range sp.Rules {
			if _, err := rs.rule(); err != nil {
				return cfg, fmt.Errorf("core: slice %d rule %d: %w", sp.ID, rs.ID, err)
			}
		}
	}
	return cfg, checkSliceIDs(ids)
}

// BuildNode instantiates a node from the configuration: slices with their
// table sizes and IoT pools, and each slice's PCEF populated with the
// configured rules.
func BuildNode(cfg OperatorConfig) (*Node, error) {
	sliceCfgs := make([]SliceConfig, len(cfg.Slices))
	for i, sp := range cfg.Slices {
		sc := SliceConfig{
			ID:        sp.ID,
			UserHint:  sp.Users,
			SyncEvery: sp.SyncEvery,
		}
		if sp.IoTPoolSize > 0 {
			sc.IoTTEIDBase = 0xE000_0000 | uint32(sp.ID)<<20
			sc.IoTTEIDCount = uint32(sp.IoTPoolSize)
		}
		if sp.CoreAddr != "" {
			addr, err := parseIPv4(sp.CoreAddr)
			if err != nil {
				return nil, fmt.Errorf("core: slice %d core_addr: %w", sp.ID, err)
			}
			sc.CoreAddr = addr
		}
		sliceCfgs[i] = sc
	}
	n := NewNode(sliceCfgs...)
	for i, sp := range cfg.Slices {
		for _, rs := range sp.Rules {
			rule, err := rs.rule()
			if err != nil {
				return nil, err
			}
			if err := n.Slice(i).PCEF().Install(rule); err != nil {
				return nil, fmt.Errorf("core: slice %d: installing rule %d: %w", sp.ID, rs.ID, err)
			}
		}
	}
	return n, nil
}

// rule converts the JSON form to a pcef.Rule.
func (rs RuleSpec) rule() (pcef.Rule, error) {
	r := pcef.Rule{
		ID:             rs.ID,
		Precedence:     rs.Precedence,
		ChargingKey:    rs.ChargingKey,
		DSCP:           rs.DSCP,
		RateBitsPerSec: uint64(rs.RateMbps * 1e6),
	}
	switch rs.Action {
	case "", "allow":
		r.Action = pcef.ActionAllow
	case "drop":
		r.Action = pcef.ActionDrop
	case "rate-limit":
		r.Action = pcef.ActionRateLimit
	case "mark":
		r.Action = pcef.ActionMark
	default:
		return r, fmt.Errorf("unknown action %q", rs.Action)
	}
	var f pcef.FilterSpec
	switch rs.Proto {
	case "":
	case "tcp":
		f.Proto = pkt.ProtoTCP
	case "udp":
		f.Proto = pkt.ProtoUDP
	case "icmp":
		f.Proto = pkt.ProtoICMP
	default:
		return r, fmt.Errorf("unknown proto %q", rs.Proto)
	}
	if rs.SrcCIDR != "" {
		addr, bits, err := parseCIDR(rs.SrcCIDR)
		if err != nil {
			return r, err
		}
		f.SrcAddr, f.SrcPrefix = addr, bits
	}
	if rs.DstCIDR != "" {
		addr, bits, err := parseCIDR(rs.DstCIDR)
		if err != nil {
			return r, err
		}
		f.DstAddr, f.DstPrefix = addr, bits
	}
	f.SrcPortLo, f.SrcPortHi = rs.SrcPortLo, rs.SrcPortHi
	f.DstPortLo, f.DstPortHi = rs.DstPortLo, rs.DstPortHi
	r.Filter = f
	return r, f.Validate()
}

// parseIPv4 parses a dotted-quad address into host order.
func parseIPv4(s string) (uint32, error) {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		return 0, fmt.Errorf("bad IPv4 %q", s)
	}
	return hostOrder(a), nil
}

// hostOrder converts an IPv4 netip.Addr to the host-order form the data
// plane uses.
func hostOrder(a netip.Addr) uint32 {
	b := a.As4()
	return pkt.IPv4Addr(b[0], b[1], b[2], b[3])
}

// parseCIDR parses "a.b.c.d/len".
func parseCIDR(s string) (uint32, uint8, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil || !p.Addr().Is4() {
		return 0, 0, fmt.Errorf("bad CIDR %q", s)
	}
	return hostOrder(p.Addr()), uint8(p.Bits()), nil
}
