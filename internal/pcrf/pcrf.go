// Package pcrf implements the Policy and Charging Rules Function: the
// backend that authorizes sessions and installs PCC rules into the PCEF
// over the Gx interface. PEPC leaves the PCRF unchanged (paper §3) and
// reaches it through the node proxy ("the interface between the proxy
// and PCRF is the same as the current interface between the P-GW and
// PCRF ... referred to as Gx", §3.3).
package pcrf

import (
	"encoding/binary"
	"errors"
	"sync"

	"pepc/internal/diameter"
	"pepc/internal/pcef"
)

// Errors.
var ErrUnknownProfile = errors.New("pcrf: no policy profile for subscriber")

// CC-Request-Type values (RFC 4006).
const (
	CCRInitial     uint32 = 1
	CCRUpdate      uint32 = 2
	CCRTermination uint32 = 3
)

// PCRF holds per-subscriber policy profiles and serves Gx.
type PCRF struct {
	mu       sync.RWMutex
	profiles map[uint64][]pcef.Rule
	// defaultRules apply to subscribers without an explicit profile.
	defaultRules []pcef.Rule

	// push delivers unsolicited rule installs (RAR) to the registered
	// listener (the node proxy).
	pushMu   sync.RWMutex
	pushFn   func(imsi uint64, rules []pcef.Rule)
	sessions map[uint64]bool
}

// New returns a PCRF with an empty rule base.
func New() *PCRF {
	return &PCRF{
		profiles: make(map[uint64][]pcef.Rule),
		sessions: make(map[uint64]bool),
	}
}

// SetDefaultRules installs rules that apply to any subscriber lacking a
// profile.
func (p *PCRF) SetDefaultRules(rules []pcef.Rule) {
	p.mu.Lock()
	p.defaultRules = append([]pcef.Rule(nil), rules...)
	p.mu.Unlock()
}

// SetProfile installs a subscriber-specific rule profile.
func (p *PCRF) SetProfile(imsi uint64, rules []pcef.Rule) {
	p.mu.Lock()
	p.profiles[imsi] = append([]pcef.Rule(nil), rules...)
	p.mu.Unlock()
}

// RulesFor resolves the rules for a subscriber.
func (p *PCRF) RulesFor(imsi uint64) []pcef.Rule {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if r, ok := p.profiles[imsi]; ok {
		return r
	}
	return p.defaultRules
}

// OnPush registers the listener for unsolicited RAR rule installs.
func (p *PCRF) OnPush(fn func(imsi uint64, rules []pcef.Rule)) {
	p.pushMu.Lock()
	p.pushFn = fn
	p.pushMu.Unlock()
}

// Push installs rules for a subscriber immediately (the RAR path),
// notifying the registered listener. The subscriber must have an active
// Gx session.
func (p *PCRF) Push(imsi uint64, rules []pcef.Rule) error {
	p.mu.Lock()
	active := p.sessions[imsi]
	if active {
		p.profiles[imsi] = append(p.profiles[imsi], rules...)
	}
	p.mu.Unlock()
	if !active {
		return ErrUnknownProfile
	}
	p.pushMu.RLock()
	fn := p.pushFn
	p.pushMu.RUnlock()
	if fn != nil {
		fn(imsi, rules)
	}
	return nil
}

// ActiveSessions returns the number of open Gx sessions.
func (p *PCRF) ActiveSessions() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, v := range p.sessions {
		if v {
			n++
		}
	}
	return n
}

// Handle implements diameter.Handler for Gx CCR messages.
func (p *PCRF) Handle(req *diameter.Message) (*diameter.Message, error) {
	if !req.IsRequest() || req.AppID != diameter.AppGx || req.Code != diameter.CmdCreditControl {
		return req.Answer(diameter.ResultUnableToComply), nil
	}
	userAVP, ok := req.Find(diameter.AVPUserName)
	if !ok {
		return req.Answer(diameter.ResultUnableToComply), nil
	}
	imsi, err := userAVP.Uint64()
	if err != nil {
		return req.Answer(diameter.ResultUnableToComply), nil
	}
	reqType := CCRInitial
	if a, ok := req.Find(diameter.AVPCCRequestType); ok {
		if v, err := a.Uint32(); err == nil {
			reqType = v
		}
	}
	switch reqType {
	case CCRInitial:
		p.mu.Lock()
		p.sessions[imsi] = true
		p.mu.Unlock()
		rules := p.RulesFor(imsi)
		avps := make([]diameter.AVP, 0, len(rules))
		for _, r := range rules {
			avps = append(avps, ruleInstallAVP(r))
		}
		return req.Answer(diameter.ResultSuccess, avps...), nil
	case CCRUpdate:
		// Usage report; accept and return success (quota management is
		// out of scope).
		return req.Answer(diameter.ResultSuccess), nil
	case CCRTermination:
		// A CCR-T may carry several User-Name AVPs: the node proxy
		// coalesces a detach batch into one termination round-trip.
		p.mu.Lock()
		delete(p.sessions, imsi)
		for _, ua := range req.FindAll(diameter.AVPUserName)[1:] {
			if extra, err := ua.Uint64(); err == nil {
				delete(p.sessions, extra)
			}
		}
		p.mu.Unlock()
		return req.Answer(diameter.ResultSuccess), nil
	default:
		return req.Answer(diameter.ResultUnableToComply), nil
	}
}

// ruleInstallAVP encodes a PCC rule as a Charging-Rule-Install grouped
// AVP.
func ruleInstallAVP(r pcef.Rule) diameter.AVP {
	return diameter.Grouped(diameter.AVPChargingRuleInstall,
		diameter.Grouped(diameter.AVPChargingRuleDefinition,
			diameter.U32AVP(diameter.AVPChargingRuleName, r.ID),
			diameter.U32AVP(diameter.AVPPrecedence, uint32(r.Precedence)),
			diameter.U32AVP(diameter.AVPRatingGroup, r.ChargingKey),
			diameter.AVP{Code: diameter.AVPFlowDescription, Data: marshalFilter(r.Filter, r.Action, r.RateBitsPerSec, r.DSCP)},
		),
	)
}

// ParseRuleInstalls decodes every Charging-Rule-Install AVP in a CCA/RAR
// back into PCC rules (client side: the node proxy).
func ParseRuleInstalls(m *diameter.Message) ([]pcef.Rule, error) {
	return ParseRuleInstallsAppend(m, nil)
}

// ParseRuleInstallsAppend is ParseRuleInstalls appending into a
// caller-provided slice, so the control plane's attach path can reuse a
// preallocated rule scratch across procedures.
func ParseRuleInstallsAppend(m *diameter.Message, rules []pcef.Rule) ([]pcef.Rule, error) {
	for _, inst := range m.FindAll(diameter.AVPChargingRuleInstall) {
		defs, err := inst.SubAVPs()
		if err != nil {
			return nil, err
		}
		for _, def := range defs {
			if def.Code != diameter.AVPChargingRuleDefinition {
				continue
			}
			subs, err := def.SubAVPs()
			if err != nil {
				return nil, err
			}
			var r pcef.Rule
			for _, a := range subs {
				switch a.Code {
				case diameter.AVPChargingRuleName:
					v, err := a.Uint32()
					if err != nil {
						return nil, err
					}
					r.ID = v
				case diameter.AVPPrecedence:
					v, err := a.Uint32()
					if err != nil {
						return nil, err
					}
					r.Precedence = uint16(v)
				case diameter.AVPRatingGroup:
					v, err := a.Uint32()
					if err != nil {
						return nil, err
					}
					r.ChargingKey = v
				case diameter.AVPFlowDescription:
					f, action, rate, dscp, err := unmarshalFilter(a.Data)
					if err != nil {
						return nil, err
					}
					r.Filter, r.Action, r.RateBitsPerSec, r.DSCP = f, action, rate, dscp
				}
			}
			rules = append(rules, r)
		}
	}
	return rules, nil
}

// marshalFilter serializes a filter spec + action compactly (the
// Flow-Description AVP is free text IPFilterRule in the standard; a
// binary layout keeps the proxy paths allocation-light).
func marshalFilter(f pcef.FilterSpec, action pcef.Action, rate uint64, dscp uint8) []byte {
	b := make([]byte, 33)
	be := binary.BigEndian
	be.PutUint32(b[0:], f.SrcAddr)
	b[4] = f.SrcPrefix
	be.PutUint32(b[5:], f.DstAddr)
	b[9] = f.DstPrefix
	b[10] = f.Proto
	be.PutUint16(b[11:], f.SrcPortLo)
	be.PutUint16(b[13:], f.SrcPortHi)
	be.PutUint16(b[15:], f.DstPortLo)
	be.PutUint16(b[17:], f.DstPortHi)
	be.PutUint32(b[19:], 0) // reserved, ignored on read
	b[23] = uint8(action)
	be.PutUint64(b[24:], rate)
	b[32] = dscp
	return b
}

func unmarshalFilter(b []byte) (pcef.FilterSpec, pcef.Action, uint64, uint8, error) {
	var f pcef.FilterSpec
	if len(b) != 33 {
		return f, 0, 0, 0, diameter.ErrAVP
	}
	be := binary.BigEndian
	f.SrcAddr = be.Uint32(b[0:])
	f.SrcPrefix = b[4]
	f.DstAddr = be.Uint32(b[5:])
	f.DstPrefix = b[9]
	f.Proto = b[10]
	f.SrcPortLo = be.Uint16(b[11:])
	f.SrcPortHi = be.Uint16(b[13:])
	f.DstPortLo = be.Uint16(b[15:])
	f.DstPortHi = be.Uint16(b[17:])
	return f, pcef.Action(b[23]), be.Uint64(b[24:]), b[32], nil
}
