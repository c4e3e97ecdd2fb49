package core

import (
	"pepc/internal/charging"
	"pepc/internal/state"
)

// Usage reporting (§3.2: the control thread "communicat[es] usage
// statistics back to the PCRF (this involves reading the user's counter
// state)"). A collection round walks the slice's users, closing each
// user's charging interval and emitting a CDR; when a proxy is attached,
// busy intervals also produce Gx usage updates. Reading
// counters takes only the per-user read lock, so the data thread is
// never stalled — the isolation property the lock split buys.

// UsageReport couples a closed CDR with its delivery outcome.
type UsageReport struct {
	CDR charging.CDR
	// ReportedToPCRF is set when a Gx usage update was sent (requires a
	// proxy and a busy interval).
	ReportedToPCRF bool
}

// CollectAllUsage closes the current charging interval for every user of
// the slice and returns the busy CDRs (idle users produce no record).
// Control thread.
func (cp *ControlPlane) CollectAllUsage(now int64) []UsageReport {
	var out []UsageReport
	cp.s.cp.Range(func(ue *state.UE) bool {
		var imsi uint64
		ue.ReadCtrl(func(c *state.ControlState) { imsi = c.IMSI })
		cdr, busy := cp.collector.Collect(ue, imsi, now)
		if !busy {
			return true
		}
		rep := UsageReport{CDR: cdr}
		if cp.proxy != nil {
			if err := cp.proxy.ReportUsage(imsi, cdr.Delta.Total()); err == nil {
				rep.ReportedToPCRF = true
			}
		}
		out = append(out, rep)
		return true
	})
	return out
}
