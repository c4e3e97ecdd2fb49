package state

import (
	"testing"
	"unsafe"
)

// layoutSink makes the UEs TestHotLayout allocates escape to the heap.
var layoutSink []*UE

// TestHotLayout pins the hot half's cache-line map (see HotUE): every
// field the verdict stage reads or writes for a run lies on a line that
// HotUE.touch loads, and the UE stays in the 896-byte size class (with
// the allocator's 8-byte type header in front of it). A larger UE would
// move to the 1024-byte class: more memory per user, slower population
// set-up, and a different alignment.
func TestHotLayout(t *testing.T) {
	const line, sizeClass, mallocHeader = 64, 896, 8
	var u UE
	if sz := unsafe.Sizeof(u); sz+mallocHeader > sizeClass {
		t.Fatalf("UE is %d B (+%d B header), over the %d-B size class", sz, mallocHeader, sizeClass)
	}
	for i := 0; i < 4; i++ {
		layoutSink = append(layoutSink, new(UE))
		if a := uintptr(unsafe.Pointer(layoutSink[i].Hot())); a%line != 0 {
			t.Fatalf("a heap UE's hot half starts %d B past a cache-line boundary", a%line)
		}
	}
	layoutSink = nil

	h := &u.hot
	cnt := unsafe.Offsetof(h.Counters)
	priv := unsafe.Offsetof(h.Priv)
	lim := priv + unsafe.Offsetof(h.Priv.Limiter)
	type span struct {
		name      string
		off, size uintptr // relative to the hot half
	}
	for _, tc := range []struct {
		line  uintptr // hot-half line number
		spans []span
	}{
		{0, []span{
			{"U", unsafe.Offsetof(h.U), unsafe.Sizeof(h.U)},
			{"cmu", unsafe.Offsetof(h.cmu), unsafe.Sizeof(h.cmu)},
			{"Counters.UplinkBytes", cnt + unsafe.Offsetof(h.Counters.UplinkBytes), 8},
			{"Counters.DownlinkBytes", cnt + unsafe.Offsetof(h.Counters.DownlinkBytes), 8},
			{"Counters.UplinkPackets", cnt + unsafe.Offsetof(h.Counters.UplinkPackets), 8},
			{"Counters.DownlinkPackets", cnt + unsafe.Offsetof(h.Counters.DownlinkPackets), 8},
		}},
		{2, []span{
			{"seq", unsafe.Offsetof(h.seq), unsafe.Sizeof(h.seq)},
			{"Fast", unsafe.Offsetof(h.Fast), unsafe.Sizeof(h.Fast)},
			{"Priv.Epoch", priv + unsafe.Offsetof(h.Priv.Epoch), unsafe.Sizeof(h.Priv.Epoch)},
			{"Priv.NTFT", priv + unsafe.Offsetof(h.Priv.NTFT), unsafe.Sizeof(h.Priv.NTFT)},
			// The limiter's fields ahead of its AMBR pair: the
			// configured bit and the bearer-bucket pointer.
			{"Priv.Limiter head", lim, unsafe.Offsetof(h.Priv.Limiter.AMBRUp)},
		}},
		{3, []span{
			{"Priv.Limiter.AMBRUp", lim + unsafe.Offsetof(h.Priv.Limiter.AMBRUp), unsafe.Sizeof(h.Priv.Limiter.AMBRUp)},
			{"Priv.Limiter.AMBRDown", lim + unsafe.Offsetof(h.Priv.Limiter.AMBRDown), unsafe.Sizeof(h.Priv.Limiter.AMBRDown)},
		}},
		{4, []span{
			{"Priv.Encap", priv + unsafe.Offsetof(h.Priv.Encap), unsafe.Sizeof(h.Priv.Encap)},
		}},
	} {
		for _, s := range tc.spans {
			first, last := s.off/line, (s.off+s.size-1)/line
			if first != tc.line || last != tc.line {
				t.Errorf("%s spans hot bytes [%d,%d), lines %d..%d; want line %d only",
					s.name, s.off, s.off+s.size, first, last, tc.line)
			}
		}
	}
}

// TestBucketLayout pins the data-path index's line map (group.go): a
// uint32 bucket — control word, keys and *UE values — is exactly one
// 64-byte cache line, and the bucket array of a table sized for a
// production population starts on a line boundary, so no bucket of it
// straddles two lines and a probe that resolves in its home bucket
// loads one line.
func TestBucketLayout(t *testing.T) {
	const line = 64
	var tb table32
	if sz := unsafe.Sizeof(tb.b[0]); sz != line {
		t.Fatalf("uint32 bucket is %d B, want %d", sz, line)
	}
	if end := unsafe.Offsetof(tb.b[0].vals) + unsafe.Sizeof(tb.b[0].vals); end > line {
		t.Fatalf("uint32 bucket's values end at byte %d, past its line", end)
	}
	for _, users := range []int{1000, 250_000} {
		m := NewU32Map(users)
		if a := uintptr(unsafe.Pointer(&m.g.b[0])); a%line != 0 {
			t.Fatalf("the bucket array of a %d-user table starts %d B past a line boundary", users, a%line)
		}
	}
}
