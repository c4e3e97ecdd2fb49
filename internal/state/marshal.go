package state

import (
	"encoding/binary"
	"errors"

	"pepc/internal/qos"
)

// Binary serialization of a UE snapshot for state migration (§4.3's
// StateTransferMessage payload). Fixed-layout little-endian encoding: the
// transfer stays inside one operator's cluster, so there is no
// cross-version concern beyond the embedded version byte.

const snapshotVersion = 2

// ErrBadSnapshot reports a truncated or version-mismatched snapshot.
var ErrBadSnapshot = errors.New("state: bad snapshot encoding")

const bearerWireLen = 3 + 8*4 + filterWireLen
const filterWireLen = 4 + 1 + 4 + 1 + 1 + 2*4 + 4 // the last 4 are reserved
const ctrlFixedLen = 8 + 8 + 4 + 4 + 2 + 16 + 1 + 4 + 4 + 4 + 1 + 8 + 8 + 4*4 + 1 + 1 + 1 + 8 + 32 + 8 + 4
const counterWireLen = 8*5 + 8*4
const levelsWireLen = 1 + 8*2 + 8*int(MaxBearers)*2

// SnapshotSize is the exact encoded size of a UE snapshot.
const SnapshotSize = 1 + ctrlFixedLen + int(MaxBearers)*bearerWireLen + counterWireLen + levelsWireLen

// QoSLevels carries a migrating user's token-bucket fill levels (format
// v2's trailing section). Valid marks levels actually captured from a
// live limiter: migration extract sets it after the data-plane fence;
// checkpoints leave it false because the control thread cannot read the
// data-private limiter of a running slice, so crash recovery restarts
// policed users with full buckets (documented in DESIGN.md §4.15).
type QoSLevels struct {
	Valid bool
	qos.Levels
}

// MarshalSnapshot encodes a UE snapshot into dst, which must have at least
// SnapshotSize bytes; it returns the bytes written. Token levels are
// encoded as not-captured; migration uses MarshalSnapshotLevels.
func MarshalSnapshot(dst []byte, cs *ControlState, cnt *CounterState) (int, error) {
	return MarshalSnapshotLevels(dst, cs, cnt, &QoSLevels{})
}

// MarshalSnapshotLevels is MarshalSnapshot carrying captured QoS token
// levels, so policing budget is conserved across a migration.
func MarshalSnapshotLevels(dst []byte, cs *ControlState, cnt *CounterState, lv *QoSLevels) (int, error) {
	if len(dst) < SnapshotSize {
		return 0, ErrBadSnapshot
	}
	o := 0
	dst[o] = snapshotVersion
	o++
	le := binary.LittleEndian
	le.PutUint64(dst[o:], cs.IMSI)
	o += 8
	le.PutUint64(dst[o:], cs.GUTI)
	o += 8
	le.PutUint32(dst[o:], cs.UEAddr)
	o += 4
	le.PutUint32(dst[o:], cs.ECGI)
	o += 4
	le.PutUint16(dst[o:], cs.TAI)
	o += 2
	for _, tai := range cs.TAIList {
		le.PutUint16(dst[o:], tai)
		o += 2
	}
	dst[o] = cs.TAICount
	o++
	le.PutUint32(dst[o:], cs.UplinkTEID)
	o += 4
	le.PutUint32(dst[o:], cs.DownlinkTEID)
	o += 4
	le.PutUint32(dst[o:], cs.ENBAddr)
	o += 4
	dst[o] = cs.BearerCount
	o++
	le.PutUint64(dst[o:], cs.AMBRUplink)
	o += 8
	le.PutUint64(dst[o:], cs.AMBRDownlink)
	o += 8
	for _, r := range cs.RuleIDs {
		le.PutUint32(dst[o:], r)
		o += 4
	}
	dst[o] = cs.RuleCount
	o++
	dst[o] = boolByte(cs.Attached)
	o++
	dst[o] = boolByte(cs.IoT)
	o++
	le.PutUint64(dst[o:], uint64(cs.LastActive))
	o += 8
	copy(dst[o:], cs.KASME[:])
	o += 32
	le.PutUint64(dst[o:], cs.NextSQN)
	o += 8
	le.PutUint32(dst[o:], cs.Epoch)
	o += 4
	for i := 0; i < MaxBearers; i++ {
		b := &cs.Bearers[i]
		dst[o] = b.EBI
		dst[o+1] = uint8(b.QCI)
		dst[o+2] = b.ARP
		o += 3
		le.PutUint64(dst[o:], b.MBRUplink)
		le.PutUint64(dst[o+8:], b.MBRDownlink)
		le.PutUint64(dst[o+16:], b.GBRUplink)
		le.PutUint64(dst[o+24:], b.GBRDownlink)
		o += 32
		f := &b.TFT
		le.PutUint32(dst[o:], f.SrcAddr)
		dst[o+4] = f.SrcPrefix
		le.PutUint32(dst[o+5:], f.DstAddr)
		dst[o+9] = f.DstPrefix
		dst[o+10] = f.Proto
		le.PutUint16(dst[o+11:], f.SrcPortLo)
		le.PutUint16(dst[o+13:], f.SrcPortHi)
		le.PutUint16(dst[o+15:], f.DstPortLo)
		le.PutUint16(dst[o+17:], f.DstPortHi)
		le.PutUint32(dst[o+19:], 0) // reserved, ignored on read
		o += filterWireLen
	}
	le.PutUint64(dst[o:], cnt.UplinkBytes)
	le.PutUint64(dst[o+8:], cnt.DownlinkBytes)
	le.PutUint64(dst[o+16:], cnt.UplinkPackets)
	le.PutUint64(dst[o+24:], cnt.DownlinkPackets)
	le.PutUint64(dst[o+32:], cnt.DroppedPackets)
	o += 40
	for _, rb := range cnt.RuleBytes {
		le.PutUint64(dst[o:], rb)
		o += 8
	}
	dst[o] = boolByte(lv.Valid)
	o++
	le.PutUint64(dst[o:], lv.AMBRUp)
	le.PutUint64(dst[o+8:], lv.AMBRDown)
	o += 16
	for i := 0; i < int(MaxBearers); i++ {
		le.PutUint64(dst[o:], lv.BearerUp[i])
		le.PutUint64(dst[o+8:], lv.BearerDown[i])
		o += 16
	}
	return o, nil
}

// UnmarshalSnapshot decodes a snapshot produced by MarshalSnapshot,
// discarding any captured token levels.
func UnmarshalSnapshot(src []byte, cs *ControlState, cnt *CounterState) error {
	var lv QoSLevels
	return UnmarshalSnapshotLevels(src, cs, cnt, &lv)
}

// UnmarshalSnapshotLevels decodes a snapshot including its QoS token
// levels section.
func UnmarshalSnapshotLevels(src []byte, cs *ControlState, cnt *CounterState, lv *QoSLevels) error {
	if len(src) < SnapshotSize || src[0] != snapshotVersion {
		return ErrBadSnapshot
	}
	o := 1
	le := binary.LittleEndian
	cs.IMSI = le.Uint64(src[o:])
	o += 8
	cs.GUTI = le.Uint64(src[o:])
	o += 8
	cs.UEAddr = le.Uint32(src[o:])
	o += 4
	cs.ECGI = le.Uint32(src[o:])
	o += 4
	cs.TAI = le.Uint16(src[o:])
	o += 2
	for i := range cs.TAIList {
		cs.TAIList[i] = le.Uint16(src[o:])
		o += 2
	}
	cs.TAICount = src[o]
	o++
	cs.UplinkTEID = le.Uint32(src[o:])
	o += 4
	cs.DownlinkTEID = le.Uint32(src[o:])
	o += 4
	cs.ENBAddr = le.Uint32(src[o:])
	o += 4
	cs.BearerCount = src[o]
	o++
	cs.AMBRUplink = le.Uint64(src[o:])
	o += 8
	cs.AMBRDownlink = le.Uint64(src[o:])
	o += 8
	for i := range cs.RuleIDs {
		cs.RuleIDs[i] = le.Uint32(src[o:])
		o += 4
	}
	cs.RuleCount = src[o]
	o++
	cs.Attached = src[o] != 0
	o++
	cs.IoT = src[o] != 0
	o++
	cs.LastActive = int64(le.Uint64(src[o:]))
	o += 8
	copy(cs.KASME[:], src[o:o+32])
	o += 32
	cs.NextSQN = le.Uint64(src[o:])
	o += 8
	cs.Epoch = le.Uint32(src[o:])
	o += 4
	for i := 0; i < MaxBearers; i++ {
		b := &cs.Bearers[i]
		b.EBI = src[o]
		b.QCI = QCI(src[o+1])
		b.ARP = src[o+2]
		o += 3
		b.MBRUplink = le.Uint64(src[o:])
		b.MBRDownlink = le.Uint64(src[o+8:])
		b.GBRUplink = le.Uint64(src[o+16:])
		b.GBRDownlink = le.Uint64(src[o+24:])
		o += 32
		f := &b.TFT
		f.SrcAddr = le.Uint32(src[o:])
		f.SrcPrefix = src[o+4]
		f.DstAddr = le.Uint32(src[o+5:])
		f.DstPrefix = src[o+9]
		f.Proto = src[o+10]
		f.SrcPortLo = le.Uint16(src[o+11:])
		f.SrcPortHi = le.Uint16(src[o+13:])
		f.DstPortLo = le.Uint16(src[o+15:])
		f.DstPortHi = le.Uint16(src[o+17:])
		o += filterWireLen
	}
	cnt.UplinkBytes = le.Uint64(src[o:])
	cnt.DownlinkBytes = le.Uint64(src[o+8:])
	cnt.UplinkPackets = le.Uint64(src[o+16:])
	cnt.DownlinkPackets = le.Uint64(src[o+24:])
	cnt.DroppedPackets = le.Uint64(src[o+32:])
	o += 40
	for i := range cnt.RuleBytes {
		cnt.RuleBytes[i] = le.Uint64(src[o:])
		o += 8
	}
	lv.Valid = src[o] != 0
	o++
	lv.AMBRUp = le.Uint64(src[o:])
	lv.AMBRDown = le.Uint64(src[o+8:])
	o += 16
	for i := 0; i < int(MaxBearers); i++ {
		lv.BearerUp[i] = le.Uint64(src[o:])
		lv.BearerDown[i] = le.Uint64(src[o+8:])
		o += 16
	}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
