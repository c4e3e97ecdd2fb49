//go:build linux && (amd64 || arm64)

package sockio

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// Batched reports whether this platform performs true vectorized I/O
// (many datagrams per kernel crossing).
func Batched() bool { return true }

// mmsghdr mirrors struct mmsghdr: one msghdr plus the kernel-written
// datagram length. On the 64-bit targets this file builds for, Msghdr is
// 8-aligned, so the uint32 length needs explicit tail padding to keep an
// array of mmsghdr correctly laid out.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// osState is the preallocated per-direction scratch for one vectorized
// call: the mmsghdr array, one iovec per message, and raw sockaddr
// storage (Inet6-sized, the larger of the two families). Everything is
// reused call to call so the steady state performs no allocation, and
// everything is reachable from the Conn so the GC keeps it alive across
// the raw syscalls.
type osState struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6

	// fn is the netpoller callback, bound once so ReadBatch/WriteBatch
	// do not allocate a closure per call. It communicates through the
	// fields below.
	fn func(fd uintptr) bool

	want  int  // headers in the call in flight (tx)
	poll  bool // rx: report an empty socket instead of parking on it
	count int  // headers completed so far
	calls int  // kernel crossings performed (including EAGAIN probes)
	errno syscall.Errno
}

// rxState adds generic receive offload to the rx scratch. With gro on
// (a Receiver turned UDP_GRO on for the socket), each header gets room
// for the UDP_GRO control message, and a message the kernel coalesced
// from a run reports the run's segment size in Message.seg.
type rxState struct {
	osState
	ctrl []groCmsg // each header's control space
	gro  bool
}

// txState adds UDP generic segmentation offload to the tx scratch: a
// header carries a whole run of datagrams (see gsoRun) with a
// UDP_SEGMENT control message, and the kernel splits it back into those
// datagrams after one pass through route, IP output, loopback and IP
// input. Receivers see exactly the datagrams that were sent.
type txState struct {
	osState
	ms    []Message // the batch in flight; nil between calls
	segs  []uint8   // datagrams carried by each header
	cmsgs []gsoCmsg // each header's UDP_SEGMENT control message
	sent  int       // datagrams carried by the headers sent so far

	// gso is whether runs go out as one segmented message: set by the
	// probe in NewConn, cleared for good by an EIO (no checksum offload
	// on the path).
	gso bool
	// send is sendmmsg; tests replace it to inject kernel answers.
	send func(fd uintptr, hs []mmsghdr) (int, syscall.Errno)
}

// UDP generic segmentation offload (linux/udp.h).
const (
	udpSegment = 103 // UDP_SEGMENT, at level IPPROTO_UDP
	// gsoMaxSegs is UDP_MAX_SEGMENTS as older kernels define it (newer
	// ones allow 128): a longer run would be refused with EINVAL.
	gsoMaxSegs = 64
	// gsoMaxBytes caps a run's payload at the largest UDP payload IPv6
	// carries without jumbograms (IPv4 allows 20 bytes more).
	gsoMaxBytes = 65535 - 40 - 8
)

// gsoCmsg is one UDP_SEGMENT control message: the cmsghdr and the
// 16-bit segment size, padded to CMSG_SPACE(2).
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// UDP generic receive offload (linux/udp.h): on a socket with it set, a
// run the kernel holds as one packet (a sender's UDP_SEGMENT run over
// loopback, a NIC's GRO merge) is handed up as one message, with a
// control message giving its segment size.
const udpGRO = 104 // UDP_GRO, at level IPPROTO_UDP

// groCmsg is room for one UDP_GRO control message: the cmsghdr and the
// int segment size, padded to CMSG_SPACE(4).
type groCmsg struct {
	hdr  syscall.Cmsghdr
	size int32
	_    [4]byte
}

func (s *osState) ensure(n int) {
	if cap(s.hdrs) >= n {
		s.hdrs = s.hdrs[:n]
		s.iovs = s.iovs[:n]
		s.names = s.names[:n]
		return
	}
	s.hdrs = make([]mmsghdr, n)
	s.iovs = make([]syscall.Iovec, n)
	s.names = make([]syscall.RawSockaddrInet6, n)
}

func (s *txState) ensure(n int) {
	s.osState.ensure(n)
	if cap(s.segs) >= n {
		s.segs = s.segs[:n]
		s.cmsgs = s.cmsgs[:n]
		return
	}
	s.segs = make([]uint8, n)
	s.cmsgs = make([]gsoCmsg, n)
	for i := range s.cmsgs {
		h := &s.cmsgs[i].hdr
		h.Level = syscall.IPPROTO_UDP
		h.Type = udpSegment
		h.SetLen(syscall.CmsgLen(2))
	}
}

func (c *Conn) initOS() {
	c.rx.fn = c.rxReady
	c.tx.fn = c.txReady
	c.tx.send = sendmmsg
	c.tx.gso = probeGSO(c.rc)
}

// probeGSO reports whether the kernel knows UDP_SEGMENT on this socket.
// It must be asked: a kernel without it ignores the control message and
// would send each run as one concatenated datagram.
func probeGSO(rc syscall.RawConn) bool {
	ok := false
	rc.Control(func(fd uintptr) {
		_, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
		ok = err == nil
	})
	return ok
}

func (c *Conn) gsoOn() bool { return c.tx.gso }

// enableGRO turns UDP_GRO on for the socket, reporting whether the
// kernel took it; a refusal leaves the conn receiving one message per
// datagram. It stays on for the socket's life.
func (c *Conn) enableGRO() bool {
	if c.portable || c.noGRO {
		return false
	}
	if !c.rx.gro {
		var serr error
		if err := c.rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
		}); err == nil && serr == nil {
			c.rx.gro = true
		}
	}
	return c.rx.gro
}

func (c *Conn) groOn() bool { return c.rx.gro }

// mapLanding maps n bytes of anonymous memory for a Receiver's run-sized
// landing slots. It lives outside the Go heap: the heap would zero and
// account the whole slab on a lane's start path, while the kernel maps
// pages as runs first touch them. Should the map fail, the slab comes
// from the heap after all.
func mapLanding(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}

// unmapLanding unmaps a slab from mapLanding; Munmap refuses a heap
// slab (EINVAL) and leaves it to the collector.
func unmapLanding(b []byte) { _ = syscall.Munmap(b) }

// rxReady is the raw-read callback: one recvmmsg attempt. Returning false
// parks the goroutine on the netpoller until the socket is readable; a
// polling read returns true on an empty socket instead (count stays 0).
func (c *Conn) rxReady(fd uintptr) bool {
	s := &c.rx.osState
	s.calls++
	n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(len(s.hdrs)), 0, 0, 0)
	if errno != 0 {
		if errno == syscall.EAGAIN || errno == syscall.EINTR {
			return s.poll
		}
		s.errno = errno
		return true
	}
	s.count = int(n)
	return true
}

func (c *Conn) readBatch(ms []Message, wait bool) (int, error) {
	s := &c.rx.osState
	s.poll = !wait
	s.ensure(len(ms))
	gro := c.rx.gro
	if gro && len(c.rx.ctrl) < len(ms) {
		c.rx.ctrl = make([]groCmsg, len(ms))
	}
	for i := range ms {
		s.iovs[i].Base = &ms[i].Buf[0]
		s.iovs[i].SetLen(len(ms[i].Buf))
		h := &s.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		h.Namelen = uint32(unsafe.Sizeof(s.names[i]))
		h.Iov = &s.iovs[i]
		h.Iovlen = 1
		if gro {
			h.Control = (*byte)(unsafe.Pointer(&c.rx.ctrl[i]))
			h.SetControllen(int(unsafe.Sizeof(c.rx.ctrl[i])))
		} else {
			h.Control = nil
			h.Controllen = 0
		}
		h.Flags = 0
		s.hdrs[i].n = 0
	}
	s.count = 0
	s.calls = 0
	s.errno = 0
	err := c.rc.Read(s.fn)
	c.stats.RxCalls.Add(uint64(s.calls))
	if err != nil {
		return 0, err
	}
	if s.errno != 0 {
		return 0, wrapErrno(s.errno)
	}
	n := s.count
	for i := 0; i < n; i++ {
		h := &s.hdrs[i].hdr
		ms[i].N = int(s.hdrs[i].n)
		ms[i].Addr = sockaddrToAddrPort(&s.names[i], h.Namelen)
		// Called with flags 0, recvmmsg reports the length it copied;
		// only msg_flags says the datagram was longer.
		ms[i].Truncated = h.Flags&syscall.MSG_TRUNC != 0
		ms[i].seg = 0
		if gro {
			if h.Flags&syscall.MSG_CTRUNC != 0 {
				// The segment size may be what was cut: the
				// message cannot be split.
				ms[i].Truncated = true
			} else if cm := &c.rx.ctrl[i]; h.Controllen >= uint64(syscall.CmsgLen(4)) &&
				cm.hdr.Level == syscall.IPPROTO_UDP && cm.hdr.Type == udpGRO {
				ms[i].seg = int(cm.size)
			}
		}
	}
	return n, nil
}

func sendmmsg(fd uintptr, hs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)), 0, 0, 0)
	return int(n), errno
}

// txReady is the raw-write callback: sendmmsg over the not-yet-sent
// headers, looping on partial progress. Returning false parks until
// writable. A run the kernel refuses to segment is resent as its own
// datagrams: EIO (no checksum offload on the path) for the rest of the
// conn's life, EINVAL (a segment over the path MTU, say) for that run
// only.
func (c *Conn) txReady(fd uintptr) bool {
	s := &c.tx
	for s.count < s.want {
		s.calls++
		n, errno := s.send(fd, s.hdrs[s.count:s.want])
		if errno != 0 {
			switch {
			case errno == syscall.EAGAIN:
				return false
			case errno == syscall.EINTR:
				continue
			case errno == syscall.EIO && s.segs[s.count] > 1:
				s.gso = false
				s.plan(s.count, s.sent, s.sent)
				continue
			case errno == syscall.EINVAL && s.segs[s.count] > 1:
				s.plan(s.count, s.sent, s.sent+int(s.segs[s.count]))
				continue
			}
			s.errno = errno
			return true
		}
		for _, k := range s.segs[s.count : s.count+n] {
			s.sent += int(k)
		}
		s.count += n
	}
	return true
}

// gsoRun returns how many leading messages of ms go out as one
// segmented message: the same destination, equal non-zero lengths
// except that the last may be shorter, at most gsoMaxSegs segments and
// gsoMaxBytes bytes. A zero-length datagram always goes alone: as a
// segment it would vanish from the concatenation.
func gsoRun(ms []Message) int {
	size := ms[0].N
	if size == 0 {
		return 1
	}
	k, total := 1, size
	for k < len(ms) && k < gsoMaxSegs {
		m := &ms[k]
		if m.N == 0 || m.N > size || total+m.N > gsoMaxBytes || m.Addr != ms[0].Addr {
			break
		}
		k++
		total += m.N
		if m.N < size {
			break
		}
	}
	return k
}

// plan lays out headers from index h for the messages from msg on, one
// header per run, and sets want to the header count. Messages before
// plain go alone, as does every message once gso is off.
func (s *txState) plan(h, msg, plain int) {
	for msg < len(s.ms) {
		k := 1
		if s.gso && msg >= plain {
			k = gsoRun(s.ms[msg:])
		}
		hd := &s.hdrs[h].hdr
		if s.ms[msg].Addr.IsValid() {
			hd.Namelen = addrPortToSockaddr(&s.names[msg], s.ms[msg].Addr)
			hd.Name = (*byte)(unsafe.Pointer(&s.names[msg]))
		} else {
			hd.Name = nil
			hd.Namelen = 0
		}
		hd.Iov = &s.iovs[msg]
		hd.Iovlen = uint64(k)
		if k > 1 {
			s.cmsgs[h].size = uint16(s.ms[msg].N)
			hd.Control = (*byte)(unsafe.Pointer(&s.cmsgs[h]))
			hd.SetControllen(int(unsafe.Sizeof(s.cmsgs[h])))
		} else {
			hd.Control = nil
			hd.Controllen = 0
		}
		hd.Flags = 0
		s.hdrs[h].n = 0
		s.segs[h] = uint8(k)
		h++
		msg += k
	}
	s.want = h
}

func (c *Conn) writeBatch(ms []Message) (int, error) {
	s := &c.tx
	s.ensure(len(ms))
	for i := range ms {
		s.iovs[i].Base = nil
		if ms[i].N > 0 {
			s.iovs[i].Base = &ms[i].Buf[0]
		}
		s.iovs[i].SetLen(ms[i].N)
	}
	s.ms = ms
	s.plan(0, 0, 0)
	s.count = 0
	s.sent = 0
	s.calls = 0
	s.errno = 0
	err := c.rc.Write(s.fn)
	s.ms = nil
	c.stats.TxCalls.Add(uint64(s.calls))
	c.stats.TxMsgs.Add(uint64(s.count))
	n := s.sent
	if err != nil {
		return n, err
	}
	if s.errno != 0 {
		return n, wrapErrno(s.errno)
	}
	return n, nil
}

// wrapErrno keeps the error path allocation light: socket-gone errnos
// collapse to ErrClosed, everything else surfaces as the syscall.Errno
// itself.
func wrapErrno(e syscall.Errno) error {
	if e == syscall.EBADF || e == syscall.ECONNRESET {
		return ErrClosed
	}
	return e
}

func sockaddrToAddrPort(sa *syscall.RawSockaddrInet6, namelen uint32) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		port := sa4.Port>>8 | sa4.Port<<8
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port)
	case syscall.AF_INET6:
		port := sa.Port>>8 | sa.Port<<8
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port)
	}
	_ = namelen
	return netip.AddrPort{}
}

func addrPortToSockaddr(sa *syscall.RawSockaddrInet6, ap netip.AddrPort) uint32 {
	a := ap.Addr()
	if a.Is4() || a.Is4In6() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		sa4.Family = syscall.AF_INET
		sa4.Addr = a.Unmap().As4()
		p := ap.Port()
		sa4.Port = p>>8 | p<<8
		return uint32(unsafe.Sizeof(*sa4))
	}
	sa.Family = syscall.AF_INET6
	sa.Addr = a.As16()
	p := ap.Port()
	sa.Port = p>>8 | p<<8
	sa.Scope_id = 0
	return uint32(unsafe.Sizeof(*sa))
}
