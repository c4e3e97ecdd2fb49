// Quickstart: bring up one PEPC node with an in-process HSS and PCRF,
// attach a UE through the full S1AP/NAS/SCTP signaling path, then pass
// uplink and downlink traffic through the slice data plane end to end.
package main

import (
	"fmt"
	"log"
	"time"

	"pepc"
	"pepc/internal/gtp"
	"pepc/internal/pkt"
)

func main() {
	// 1. Backends: subscriber database and policy function.
	hss := pepc.NewHSS()
	hss.ProvisionRange(310_150_000_000_001, 10, 50e6, 100e6) // 10 subscribers
	pcrf := pepc.NewPCRF()

	// 2. A node with one slice, proxied to the backends.
	node := pepc.NewNode(pepc.SliceConfig{ID: 1, UserHint: 1024})
	node.AttachProxy(pepc.NewProxy(hss, pcrf))
	slice := node.Slice(0)

	// 3. Signaling: an eNodeB connects over SCTP and attaches a UE with
	// real mutual authentication (AKA challenge/response).
	enbWire, coreWire := pepc.SCTPPipe(1024)
	acceptDone := make(chan error, 1)
	var srv *pepc.S1APServer
	go func() {
		assoc, err := pepc.SCTPAccept(coreWire, pepc.SCTPConfig{Tag: 2})
		if err != nil {
			acceptDone <- err
			return
		}
		srv, err = node.ServeS1AP(0, assoc)
		if err != nil {
			acceptDone <- err
			return
		}
		acceptDone <- nil
		go srv.Serve(nil)
	}()
	assoc, err := pepc.SCTPDial(enbWire, pepc.SCTPConfig{Tag: 1})
	if err != nil {
		log.Fatalf("sctp dial: %v", err)
	}
	if err := <-acceptDone; err != nil {
		log.Fatalf("sctp accept: %v", err)
	}

	base := pepc.NewENB(pkt.IPv4Addr(192, 168, 1, 1), 1, 0x100, assoc)
	ue := pepc.NewUE(310_150_000_000_001)
	if err := base.Attach(ue); err != nil {
		log.Fatalf("attach: %v", err)
	}
	// The eNodeB returns once it has sent its last message; the core
	// records the downlink tunnel from the context-setup response, which
	// precedes AttachComplete on the same ordered association. Wait for
	// the core's side of the attach before sending downlink traffic.
	for deadline := time.Now().Add(2 * time.Second); srv.AttachesCompleted.Load() != 1; {
		if time.Now().After(deadline) {
			log.Fatal("attach not completed by the core")
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("UE %d attached: GUTI=%#x IP=%s uplink TEID=%#x\n",
		ue.IMSI, ue.GUTI, pkt.FormatIPv4(ue.UEAddr), ue.UplinkTEID)

	// 4. Data plane: run the slice's data thread and push one uplink
	// packet (GTP-U from the eNodeB) and one downlink packet (IP toward
	// the UE). Its pass syncs the new user before it looks them up.
	stop := make(chan struct{})
	go slice.RunData(stop)
	defer close(stop)

	up := buildUplink(ue)
	node.SteerUplink(up)
	down := buildDownlink(ue)
	node.SteerDownlink(down)

	deadline := time.After(2 * time.Second)
	for got := 0; got < 2; {
		b, ok := slice.Egress.Dequeue()
		if !ok {
			select {
			case <-deadline:
				log.Fatalf("egress timed out (forwarded=%d dropped=%d missed=%d)",
					slice.Data().Forwarded.Load(), slice.Data().Dropped.Load(), slice.Data().Missed.Load())
			default:
				time.Sleep(time.Millisecond)
			}
			continue
		}
		got++
		if teid, err := gtp.PeekTEID(b.Bytes()); err == nil {
			fmt.Printf("downlink egress: GTP-U toward eNodeB, TEID=%#x, %d bytes\n", teid, b.Len())
		} else {
			fmt.Printf("uplink egress: decapsulated IP packet, %d bytes\n", b.Len())
		}
		b.Free()
	}
	fmt.Println("quickstart complete: attach + uplink + downlink all verified")
}

// buildUplink wraps a small UDP datagram from the UE in GTP-U, as the
// eNodeB would.
func buildUplink(ue *pepc.UE) *pepc.Buf {
	b := pkt.NewBuf(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	payload := []byte("hello from the UE")
	inner := pkt.IPv4HeaderLen + pkt.UDPHeaderLen + len(payload)
	data, _ := b.Append(inner)
	ip := pkt.IPv4{Length: uint16(inner), TTL: 64, Protocol: pkt.ProtoUDP,
		Src: ue.UEAddr, Dst: pkt.IPv4Addr(8, 8, 8, 8)}
	ip.SerializeTo(data)
	u := pkt.UDP{SrcPort: 5000, DstPort: 53, Length: uint16(pkt.UDPHeaderLen + len(payload))}
	u.SerializeTo(data[pkt.IPv4HeaderLen:])
	copy(data[pkt.IPv4HeaderLen+pkt.UDPHeaderLen:], payload)
	if err := gtp.EncapGPDU(b, ue.UplinkTEID, 0, ue.CoreAddr); err != nil {
		log.Fatalf("encap: %v", err)
	}
	return b
}

// buildDownlink is a plain IP packet addressed to the UE.
func buildDownlink(ue *pepc.UE) *pepc.Buf {
	b := pkt.NewBuf(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	inner := pkt.IPv4HeaderLen + pkt.UDPHeaderLen + 8
	data, _ := b.Append(inner)
	ip := pkt.IPv4{Length: uint16(inner), TTL: 64, Protocol: pkt.ProtoUDP,
		Src: pkt.IPv4Addr(8, 8, 8, 8), Dst: ue.UEAddr}
	ip.SerializeTo(data)
	u := pkt.UDP{SrcPort: 53, DstPort: 5000, Length: uint16(pkt.UDPHeaderLen + 8)}
	u.SerializeTo(data[pkt.IPv4HeaderLen:])
	return b
}
