package pkt

import "fmt"

// Flow is the inner 5-tuple of a user packet, extracted once by the parse
// stage and matched by the PCEF classifier and bearer TFTs. It is a
// comparable value type.
type Flow struct {
	Src     uint32 // host order
	Dst     uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String implements fmt.Stringer.
func (f Flow) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d/%d", FormatIPv4(f.Src), f.SrcPort, FormatIPv4(f.Dst), f.DstPort, f.Proto)
}

// HashUint32 hashes a 32-bit key (TEID, IPv4 address) to 64 bits using a
// finalizer with good avalanche behaviour; used by the open-address state
// tables and by the demux.
func HashUint32(x uint32) uint64 {
	h := uint64(x)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// HashUint64 hashes a 64-bit key (IMSI) with the same finalizer.
func HashUint64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
