package core

import (
	"pepc/internal/pkt"
	"pepc/internal/ring"
	"pepc/internal/sim"
	"pepc/internal/state"
)

// Idle mode and paging: when a UE goes idle the eNodeB releases its S1
// context and the core drops the downlink tunnel endpoint (S1 Release).
// Downlink packets arriving for an idle user cannot be delivered; the
// real EPC buffers them and sends a Downlink Data Notification to page
// the UE, which re-establishes the data path with a Service Request.
// PEPC's consolidation keeps this entirely inside the slice: the data
// thread parks the packet on the paging queue and the control thread
// releases it once the endpoint returns.

// DefaultPagingQueueCap bounds parked downlink packets per slice.
const DefaultPagingQueueCap = 1 << 10

// initPaging is called from newDataPlane.
func (dp *DataPlane) initPaging() {
	dp.paging = ring.MustMPSC[*pkt.Buf](DefaultPagingQueueCap)
}

// parkForPaging buffers a downlink packet for an idle user, once: a
// packet that comes back around still idle is dropped (its user was
// paged and did not answer before the retry).
func (dp *DataPlane) parkForPaging(b *pkt.Buf, ue *state.UE) {
	if b.Meta.Paged {
		dp.countDrop(ue.Hot())
		dp.drop(b)
		return
	}
	b.Meta.Paged = true
	if !dp.paging.Enqueue(b) {
		dp.countDrop(ue.Hot())
		dp.drop(b)
		return
	}
	dp.PagedPackets.Add(1)
}

// ReleaseAccess moves a user to idle: the radio-side tunnel endpoint is
// cleared (S1 UE Context Release on the control side). Subsequent
// downlink traffic is parked for paging.
func (cp *ControlPlane) ReleaseAccess(imsi uint64) error {
	ue := cp.s.cp.LookupIMSI(imsi)
	if ue == nil {
		return ErrUserUnknown
	}
	ue.WriteCtrl(func(c *state.ControlState) {
		c.DownlinkTEID = 0
		c.ENBAddr = 0
	})
	return nil
}

// ResumeAccess completes a service request (the UE answered the page or
// has uplink to send): the new radio endpoint is installed and every
// parked downlink packet is re-queued for delivery. Packets parked for
// other, still-idle users simply park again on their next pass.
func (cp *ControlPlane) ResumeAccess(imsi uint64, enbAddr, downlinkTEID uint32) error {
	ue := cp.s.cp.LookupIMSI(imsi)
	if ue == nil {
		return ErrUserUnknown
	}
	ue.WriteCtrl(func(c *state.ControlState) {
		c.ENBAddr = enbAddr
		c.DownlinkTEID = downlinkTEID
		c.LastActive = sim.Now()
	})
	// Drain the paging queue back into the downlink ring. The resumed
	// user's packets deliver; others re-park (their Paged mark is
	// cleared so they get one more chance per resume).
	for {
		b, ok := cp.s.data.paging.Dequeue()
		if !ok {
			return nil
		}
		b.Meta.Paged = false
		if !cp.s.enqueue(b, false) {
			b.Free()
		}
	}
}
