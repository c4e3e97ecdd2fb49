//go:build linux && (amd64 || arm64)

package sockio

import (
	"net"
	"testing"
)

// TestFlowSteerProgShape pins the steering program's structure so a
// refactor cannot silently change the queue-selection contract (tested
// behaviorally in TestGroupDistribution only on kernels that accept the
// attach).
func TestFlowSteerProgShape(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		prog := flowSteerProg(n)
		if len(prog) != 11 {
			t.Fatalf("n=%d: program length %d, want 11", n, len(prog))
		}
		if prog[9].k != uint32(n) || prog[9].code != bpfAluModK {
			t.Fatalf("n=%d: mod operand %d (code %#x)", n, prog[9].k, prog[9].code)
		}
		if prog[8].k != 32 {
			t.Fatalf("outer TEID load at offset %d, want 32", prog[8].k)
		}
		if prog[6].k != 16 {
			t.Fatalf("IPv4 dst load at offset %d, want 16", prog[6].k)
		}
		if prog[5].k != 2152 || prog[5].jt != 2 {
			t.Fatalf("GTP-U port jeq k=%d jt=%d, want k=2152 jt=2", prog[5].k, prog[5].jt)
		}
		if prog[1].k != 0x45 || prog[1].jf != 4 {
			t.Fatalf("IPv4 check jeq k=%#x jf=%d, want k=0x45 jf=4", prog[1].k, prog[1].jf)
		}
	}
}

// TestGroupSocketBuffers: every queue of a group asks for SocketBuffer,
// so what the kernel grants must exceed a bare socket's default wherever
// rmem_max/wmem_max allow more than the default at all.
func TestGroupSocketBuffers(t *testing.T) {
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	bare, err := NewConn(pc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	defRcv, defSnd := bare.bufferSizes()
	_ = bare.uc.SetReadBuffer(SocketBuffer)
	_ = bare.uc.SetWriteBuffer(SocketBuffer)
	maxRcv, maxSnd := bare.bufferSizes()
	if maxRcv <= defRcv || maxSnd <= defSnd {
		t.Skipf("kernel grants no more than the default (rcv %d, snd %d)", defRcv, defSnd)
	}
	for _, n := range []int{1, 2} {
		g, err := ListenGroup("udp4", "127.0.0.1:0", n)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < g.Size(); q++ {
			if rcv, snd := g.Queue(q).bufferSizes(); rcv != maxRcv || snd != maxSnd {
				t.Errorf("group of %d, queue %d: buffers rcv %d snd %d, want %d and %d (default %d and %d)",
					n, q, rcv, snd, maxRcv, maxSnd, defRcv, defSnd)
			}
		}
		g.Close()
	}
}
