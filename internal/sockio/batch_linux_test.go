//go:build linux && (amd64 || arm64)

package sockio

import (
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// sentHdr is what one mmsghdr handed to sendmmsg asked of the kernel.
type sentHdr struct {
	segs int    // iovecs, one per datagram
	cmsg bool   // a UDP_SEGMENT control message is attached
	size uint16 // its segment size
}

func describe(h *mmsghdr) sentHdr {
	d := sentHdr{segs: int(h.hdr.Iovlen), cmsg: h.hdr.Control != nil}
	if d.cmsg {
		c := (*gsoCmsg)(unsafe.Pointer(h.hdr.Control))
		if c.hdr.Level != syscall.IPPROTO_UDP || c.hdr.Type != udpSegment ||
			c.hdr.Len != uint64(syscall.CmsgLen(2)) || h.hdr.Controllen != uint64(unsafe.Sizeof(*c)) {
			d.size = 0 // malformed: never a valid segment size
		} else {
			d.size = c.size
		}
	}
	return d
}

// gsoPeers returns two bound receivers and an unconnected sender on the
// vectorized backend, skipping where UDP_SEGMENT is not offered.
func gsoPeers(t *testing.T) (peers [2]*Conn, tx *Conn) {
	t.Helper()
	be := backend{name: "vectorized"}
	peers = [2]*Conn{be.bound(t), be.bound(t)}
	tx = be.bound(t)
	if !tx.gsoOn() {
		t.Skip("the kernel does not offer UDP_SEGMENT")
	}
	return peers, tx
}

// record wraps c's sendmmsg: answer may decide a call's outcome in the
// kernel's place (ok true), and every header of every call is logged.
func record(c *Conn, answer func(call int, fd uintptr, hs []mmsghdr) (n int, errno syscall.Errno, ok bool)) *[][]sentHdr {
	var log [][]sentHdr
	calls := 0
	c.tx.send = func(fd uintptr, hs []mmsghdr) (int, syscall.Errno) {
		var call []sentHdr
		for i := range hs {
			call = append(call, describe(&hs[i]))
		}
		log = append(log, call)
		calls++
		if answer != nil {
			if n, errno, ok := answer(calls, fd, hs); ok {
				return n, errno
			}
		}
		return sendmmsg(fd, hs)
	}
	return &log
}

func addrs(peers [2]*Conn) [2]netip.AddrPort {
	return [2]netip.AddrPort{peers[0].LocalAddrPort(), peers[1].LocalAddrPort()}
}

// TestGSOHeaders: for every burst layout the kernel is handed exactly
// one header per run, whose control message carries the run's segment
// size — and a header of one datagram carries none.
func TestGSOHeaders(t *testing.T) {
	peers, tx := gsoPeers(t)
	for _, sh := range gsoShapes {
		log := record(tx, nil)
		ms := sh.build(addrs(peers))
		if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
			t.Fatalf("%s: WriteBatch = %d, %v", sh.name, n, err)
		}
		checkDelivered(t, sh, ms, peers)
		if len(*log) != 1 {
			t.Fatalf("%s: %d sendmmsg calls, want 1", sh.name, len(*log))
		}
		hs := (*log)[0]
		if len(hs) != len(sh.runs) {
			t.Fatalf("%s: %d headers %v, want runs %v", sh.name, len(hs), hs, sh.runs)
		}
		first := 0
		for i, h := range hs {
			want := sentHdr{segs: sh.runs[i]}
			if want.segs > 1 {
				want.cmsg, want.size = true, uint16(sh.lens[first])
			}
			if h != want {
				t.Fatalf("%s: header %d = %+v, want %+v", sh.name, i, h, want)
			}
			first += sh.runs[i]
		}
	}
}

// TestGSOProbe: the probe answers yes on a UDP socket of a kernel that
// has UDP_SEGMENT and no on a socket whose protocol does not know it; a
// conn the probe said no to (tx.gso false, as NewConn leaves it) hands
// the kernel one plain header per datagram.
func TestGSOProbe(t *testing.T) {
	peers, tx := gsoPeers(t)
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()
	rc, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	if probeGSO(rc) {
		t.Fatal("the probe accepts a TCP socket")
	}

	tx.tx.gso = false
	log := record(tx, nil)
	for _, sh := range gsoShapes {
		*log = nil
		ms := sh.build(addrs(peers))
		if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
			t.Fatalf("%s: WriteBatch = %d, %v", sh.name, n, err)
		}
		checkDelivered(t, sh, ms, peers)
		for _, call := range *log {
			for _, h := range call {
				if h != (sentHdr{segs: 1}) {
					t.Fatalf("%s: header %+v on a conn without segmentation", sh.name, h)
				}
			}
		}
	}
}

// TestGSOEIOLatches: EIO (no checksum offload on the path) on a
// segmented header resends the rest of the burst plainly and turns
// segmentation off for the conn's life.
func TestGSOEIOLatches(t *testing.T) {
	peers, tx := gsoPeers(t)
	log := record(tx, func(_ int, _ uintptr, hs []mmsghdr) (int, syscall.Errno, bool) {
		if hs[0].hdr.Control != nil {
			return 0, syscall.EIO, true
		}
		return 0, 0, false
	})
	sh := gsoShapes[2] // larger-breaks: runs 3, 2, 1
	ms := sh.build(addrs(peers))
	if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	checkDelivered(t, sh, ms, peers)
	if tx.gsoOn() {
		t.Fatal("EIO did not turn segmentation off")
	}
	if len(*log) != 2 || len((*log)[1]) != len(ms) {
		t.Fatalf("calls %v, want the refused one and one of %d plain headers", *log, len(ms))
	}
	if st := tx.Stats(); st.TxCalls != 2 || st.TxMsgs != uint64(len(ms)) || st.TxPackets != uint64(len(ms)) {
		t.Fatalf("stats %+v", st)
	}

	*log = nil
	if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("second WriteBatch = %d, %v", n, err)
	}
	checkDelivered(t, sh, ms, peers)
	for _, h := range (*log)[0] {
		if h.cmsg {
			t.Fatal("a latched-off conn attached UDP_SEGMENT again")
		}
	}
}

// TestGSOEINVALPerRun: EINVAL on a segmented header (a segment over the
// path MTU, say) resends just that run's datagrams one by one; the runs
// around it stay segmented and so does the conn.
func TestGSOEINVALPerRun(t *testing.T) {
	peers, tx := gsoPeers(t)
	// Like the kernel, the seam sends the headers before the refused
	// one and reports the error when that one leads the call.
	log := record(tx, func(_ int, fd uintptr, hs []mmsghdr) (int, syscall.Errno, bool) {
		for i := range hs {
			if d := describe(&hs[i]); d.cmsg && d.size == 200 {
				if i == 0 {
					return 0, syscall.EINVAL, true
				}
				n, errno := sendmmsg(fd, hs[:i])
				return n, errno, true
			}
		}
		return 0, 0, false
	})
	sh := gsoShapes[2] // larger-breaks: runs 3, 2 (the 200-byte one), 1
	ms := sh.build(addrs(peers))
	if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	checkDelivered(t, sh, ms, peers)
	if !tx.gsoOn() {
		t.Fatal("EINVAL turned segmentation off for the conn")
	}
	// Call 1 sends run 1 and stops at the refused run 2 (sendmmsg
	// returns the count before a failing header); call 2 is refused;
	// call 3 carries run 2 as two plain datagrams, then run 3.
	want := [][]sentHdr{
		{{segs: 3, cmsg: true, size: 100}, {segs: 2, cmsg: true, size: 200}, {segs: 1}},
		{{segs: 2, cmsg: true, size: 200}, {segs: 1}},
		{{segs: 1}, {segs: 1}, {segs: 1}},
	}
	got := *log
	if len(got) != len(want) {
		t.Fatalf("calls %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("call %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("call %d header %d = %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if st := tx.Stats(); st.TxCalls != 3 || st.TxMsgs != 4 || st.TxPackets != uint64(len(ms)) {
		t.Fatalf("stats %+v, want 3 calls, 4 messages, %d packets", st, len(ms))
	}
}

// TestWriteBatchPartialEAGAIN: the kernel taking only part of a burst,
// and then a full send buffer (EAGAIN), resume where they stopped; the
// datagrams arrive once each and in order, and the count returned maps
// the headers sent back to datagrams.
func TestWriteBatchPartialEAGAIN(t *testing.T) {
	peers, tx := gsoPeers(t)
	log := record(tx, func(call int, fd uintptr, hs []mmsghdr) (int, syscall.Errno, bool) {
		switch call {
		case 1:
			n, errno := sendmmsg(fd, hs[:1])
			return n, errno, true
		case 2:
			return 0, syscall.EAGAIN, true
		}
		return 0, 0, false
	})
	tx.UDPConn().SetWriteDeadline(time.Now().Add(5 * time.Second))
	sh := gsoShapes[1] // shorter-last: runs 6, 1
	ms := sh.build(addrs(peers))
	if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	checkDelivered(t, sh, ms, peers)
	if len(*log) != 3 {
		t.Fatalf("%d sendmmsg calls %v, want 3 (partial, EAGAIN, the rest)", len(*log), *log)
	}
	if st := tx.Stats(); st.TxCalls != 3 || st.TxMsgs != 2 || st.TxPackets != uint64(len(ms)) {
		t.Fatalf("stats %+v, want 3 calls, 2 messages, %d packets", st, len(ms))
	}
}
