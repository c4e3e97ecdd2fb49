package nas

import "testing"

// fuzzSeeds returns the messages this package's tests round-trip, plain
// and integrity protected, plus truncated and corrupted ones.
func fuzzSeeds() [][]byte {
	esm := (&ActivateDefaultBearerRequest{EBI: 5, QCI: 9, UEAddr: 0x0a00002a, APNAMBRUplink: 10e6, APNAMBRDownlink: 50e6}).Marshal()
	req := (&AttachRequest{IMSI: 310150123456789, UENetworkCapability: 0x8020, ESMContainer: []byte{0xde, 0xad}}).Marshal()
	auth := &AuthenticationRequest{KSI: 3}
	for i := range auth.RAND {
		auth.RAND[i], auth.AUTN[i] = 0xaa, 0xbb
	}
	seeds := [][]byte{
		req,
		(&AttachRequest{GUTI: 0xfeedface}).Marshal(),
		auth.Marshal(),
		(&AuthenticationResponse{RES: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}).Marshal(),
		(&SecurityModeCommand{SelectedAlgorithms: 0x12, KSI: 1}).Marshal(),
		(&SecurityModeComplete{}).Marshal(),
		(&AttachAccept{GUTI: 42, TAI: 7, TAIList: []uint16{7, 8, 9}, ESMContainer: esm}).Marshal(),
		esm,
		MarshalProtected((&AttachComplete{}).Marshal(), 0xdeadbeef, 7),
		{}, {0x07}, {SecHdrIntegrity<<4 | PDEMM, 1, 2}, req[:len(req)/2],
	}
	bad := append([]byte(nil), req...)
	bad[len(bad)-1], bad[len(bad)-2] = 0xff, 0xff // ESM length past the end
	return append(seeds, bad)
}

// FuzzNASDecode asserts that the header decoder, the protected-frame
// unwrap and every message decoder never panic, on a frame and on the
// inner message it wraps, and that a decoded header's body offset lies
// within the frame.
func FuzzNASDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHeader(data); err == nil && h.BodyOff > len(data) {
			t.Fatalf("body offset %d past a %d-byte frame", h.BodyOff, len(data))
		}
		inner, _, _, _, _ := UnwrapProtected(data)
		for _, b := range [][]byte{data, inner} {
			UnmarshalAttachRequest(b)
			UnmarshalAuthenticationRequest(b)
			UnmarshalAuthenticationResponse(b)
			UnmarshalSecurityModeCommand(b)
			UnmarshalAttachAccept(b)
			UnmarshalActivateDefaultBearerRequest(b)
		}
	})
}
