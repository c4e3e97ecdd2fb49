//go:build linux && (amd64 || arm64)

package sockio

import (
	"context"
	"net"
	"syscall"
	"unsafe"
)

// Socket options not exported by the syscall package on linux.
const (
	soReusePort           = 0x0f // SO_REUSEPORT
	soAttachReusePortCBPF = 0x33 // SO_ATTACH_REUSEPORT_CBPF
)

// Classic-BPF opcodes used by the steering program.
const (
	bpfLdBAbs  = 0x30 // ldb [k]   A = payload byte at k
	bpfLdHAbs  = 0x28 // ldh [k]   A = payload big-endian half-word at k
	bpfLdWAbs  = 0x20 // ld  [k]   A = payload big-endian word at k
	bpfAluModK = 0x94 // mod #k
	bpfJmpJeqK = 0x15 // jeq #k, jt, jf
	bpfJmpJA   = 0x05 // ja +k
	bpfRetA    = 0x16 // ret A
)

// sockFilter mirrors struct sock_filter.
type sockFilter struct {
	code uint16
	jt   uint8
	jf   uint8
	k    uint32
}

// sockFprog mirrors struct sock_fprog on 64-bit: the instruction count
// padded out to the pointer alignment of the filter pointer.
type sockFprog struct {
	len    uint16
	_      [6]byte
	filter *sockFilter
}

// flowSteerProg builds the queue-selection program for an n-queue group.
// For reuseport on UDP the kernel runs the filter over the UDP payload,
// and the program's return value is the queue index (a too-short load
// terminates the program returning 0, i.e. queue 0; a value >= n falls
// back to the kernel hash). The program keys on the flow, not the packet.
// PEPC's wire datagrams carry a full outer envelope, so the payload is
// itself an IPv4 packet:
//
//	GTP-U envelope (IPv4/IHL-5 carrying UDP to port 2152):
//	    queue = outer TEID mod n        (TEID at 20 + 8 + 4 = offset 32)
//	plain IPv4 (anything else — downlink from the SGi):
//	    queue = IPv4 dst mod n
//
// so every packet of one tunnel (and every downlink packet of one UE)
// lands on the same queue regardless of the sender's source port — the
// affinity the per-queue WireSteer and PoolCache rely on.
func flowSteerProg(n int) []sockFilter {
	k := uint32(n)
	return []sockFilter{
		{code: bpfLdBAbs, k: 0},                   // A = version|IHL
		{code: bpfJmpJeqK, jt: 0, jf: 4, k: 0x45}, // option-free IPv4? : dst branch
		{code: bpfLdBAbs, k: 9},                   // A = protocol
		{code: bpfJmpJeqK, jt: 0, jf: 2, k: 17},   // UDP? : dst branch
		{code: bpfLdHAbs, k: 22},                  // A = outer UDP dst port
		{code: bpfJmpJeqK, jt: 2, jf: 0, k: 2152}, // GTP-U? TEID branch : dst branch
		{code: bpfLdWAbs, k: 16},                  // A = IPv4 dst addr
		{code: bpfJmpJA, k: 1},                    // skip TEID load
		{code: bpfLdWAbs, k: 32},                  // A = outer TEID
		{code: bpfAluModK, k: k},
		{code: bpfRetA},
	}
}

// reusePortControl marks the socket as a reuseport-group member before
// bind, so all queues may share one local address.
func reusePortControl(network, address string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); err != nil {
		return err
	}
	return serr
}

// attachReusePortProg attaches the steering program to the reuseport
// group through one member socket (the kernel applies it group-wide).
func attachReusePortProg(c *Conn, prog []sockFilter) error {
	fp := sockFprog{len: uint16(len(prog)), filter: &prog[0]}
	var serr syscall.Errno
	err := c.rc.Control(func(fd uintptr) {
		_, _, serr = syscall.Syscall6(syscall.SYS_SETSOCKOPT, fd,
			uintptr(syscall.SOL_SOCKET), soAttachReusePortCBPF,
			uintptr(unsafe.Pointer(&fp)), unsafe.Sizeof(fp), 0)
	})
	if err != nil {
		return err
	}
	if serr != 0 {
		return serr
	}
	return nil
}

// bufferSizes reads back SO_RCVBUF and SO_SNDBUF (the kernel reports
// twice the requested payload size: it counts its own bookkeeping).
func (c *Conn) bufferSizes() (rcv, snd int) {
	_ = c.rc.Control(func(fd uintptr) {
		rcv, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		snd, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	})
	return rcv, snd
}

// listenGroupOS opens n reuseport sockets on addr and attaches the flow
// steering program. The attach is best-effort: a kernel that refuses it
// leaves the group balancing by 4-tuple hash (steered=false).
func listenGroupOS(network, addr string, n int) ([]*Conn, bool, error) {
	lc := net.ListenConfig{Control: reusePortControl}
	conns := make([]*Conn, 0, n)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), network, addr)
		if err != nil {
			closeAll()
			return nil, false, err
		}
		c, err := NewConn(pc.(*net.UDPConn))
		if err != nil {
			pc.Close()
			closeAll()
			return nil, false, err
		}
		if i == 0 {
			// addr may carry port 0: the rest of the group joins the
			// port the first bind picked.
			addr = pc.LocalAddr().String()
		}
		conns = append(conns, c)
	}
	steered := attachReusePortProg(conns[0], flowSteerProg(n)) == nil
	return conns, steered, nil
}
