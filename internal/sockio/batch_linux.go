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

	want  int  // messages in the call in flight (tx)
	poll  bool // rx: report an empty socket instead of parking on it
	count int  // messages completed so far
	calls int  // kernel crossings performed (including EAGAIN probes)
	errno syscall.Errno
}

type rxState struct{ osState }
type txState struct{ osState }

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

func (c *Conn) initOS() {
	c.rx.fn = c.rxReady
	c.tx.fn = c.txReady
}

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
	for i := range ms {
		s.iovs[i].Base = &ms[i].Buf[0]
		s.iovs[i].SetLen(len(ms[i].Buf))
		h := &s.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		h.Namelen = uint32(unsafe.Sizeof(s.names[i]))
		h.Iov = &s.iovs[i]
		h.Iovlen = 1
		h.Control = nil
		h.Controllen = 0
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
		ms[i].N = int(s.hdrs[i].n)
		ms[i].Addr = sockaddrToAddrPort(&s.names[i], s.hdrs[i].hdr.Namelen)
	}
	return n, nil
}

// txReady is the raw-write callback: sendmmsg over the not-yet-sent tail
// of the batch, looping on partial progress. Returning false parks until
// writable.
func (c *Conn) txReady(fd uintptr) bool {
	s := &c.tx.osState
	for s.count < s.want {
		s.calls++
		n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.hdrs[s.count])), uintptr(s.want-s.count), 0, 0, 0)
		if errno != 0 {
			if errno == syscall.EAGAIN {
				return false
			}
			if errno == syscall.EINTR {
				continue
			}
			s.errno = errno
			return true
		}
		s.count += int(n)
	}
	return true
}

func (c *Conn) writeBatch(ms []Message) (int, error) {
	s := &c.tx.osState
	s.ensure(len(ms))
	for i := range ms {
		s.iovs[i].Base = &ms[i].Buf[0]
		s.iovs[i].SetLen(ms[i].N)
		h := &s.hdrs[i].hdr
		if ms[i].Addr.IsValid() {
			nl := addrPortToSockaddr(&s.names[i], ms[i].Addr)
			h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
			h.Namelen = nl
		} else {
			h.Name = nil
			h.Namelen = 0
		}
		h.Iov = &s.iovs[i]
		h.Iovlen = 1
		h.Control = nil
		h.Controllen = 0
		h.Flags = 0
		s.hdrs[i].n = 0
	}
	s.want = len(ms)
	s.count = 0
	s.calls = 0
	s.errno = 0
	err := c.rc.Write(s.fn)
	c.stats.TxCalls.Add(uint64(s.calls))
	n := s.count
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
