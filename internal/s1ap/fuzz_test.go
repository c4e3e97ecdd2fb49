package s1ap

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns the messages this package's tests round-trip, plus a
// truncated one and one with a corrupted IE length.
func fuzzSeeds() [][]byte {
	ack := (&PathSwitchAck{MMEUEID: 9, ENBUEID: 10}).Marshal()
	seeds := [][]byte{
		(&InitialUEMessage{ENBUEID: 17, NASPDU: []byte{0x07, 0x41, 1, 2, 3}, TAI: 9, ECGI: 0x00facade}).Marshal(),
		(&NASTransport{MMEUEID: 1, ENBUEID: 2, NASPDU: []byte{9}}).Marshal(),
		(&NASTransport{MMEUEID: 1, ENBUEID: 2, NASPDU: []byte{9}, Uplink: true}).Marshal(),
		(&InitialContextSetupRequest{MMEUEID: 5, ENBUEID: 6, UplinkTEID: 0xabc, CoreAddr: 0x0a000001, NASPDU: []byte{1}}).Marshal(),
		(&InitialContextSetupResponse{MMEUEID: 5, ENBUEID: 6, DownlinkTEID: 0xdef, ENBAddr: 0x0b000001}).Marshal(),
		(&PathSwitchRequest{MMEUEID: 9, ENBUEID: 10, DownlinkTEID: 0x77, ENBAddr: 0x0c000001, ECGI: 3, TAI: 4}).Marshal(),
		ack,
		(&HandoverRequired{MMEUEID: 1, ENBUEID: 2, TargetENB: 3}).Marshal(),
		(&HandoverNotify{MMEUEID: 1, ENBUEID: 2, DownlinkTEID: 5, ENBAddr: 6, ECGI: 7}).Marshal(),
		(&UEContextRelease{MMEUEID: 1, ENBUEID: 2, Cause: 3}).Marshal(),
		{1, 2, 3}, ack[:len(ack)-1],
	}
	bad := append([]byte(nil), ack...)
	bad[12], bad[13] = 0xff, 0xff
	return append(seeds, bad)
}

// FuzzS1APUnmarshal asserts that the PDU decoder and every message parser
// never panic, and that a PDU that decodes re-marshals to bytes that
// decode and marshal identically again.
func FuzzS1APUnmarshal(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		ParseInitialUEMessage(p)
		ParseNASTransport(p)
		ParseInitialContextSetupRequest(p)
		ParseInitialContextSetupResponse(p)
		ParsePathSwitchRequest(p)
		ParseHandoverRequired(p)
		ParseHandoverNotify(p)
		ParseUEContextRelease(p)
		out := p.Marshal()
		p2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshal does not parse: %v", err)
		}
		if out2 := p2.Marshal(); !bytes.Equal(out, out2) {
			t.Fatalf("marshal not stable:\n%x\n%x", out, out2)
		}
	})
}
