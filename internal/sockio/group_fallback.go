//go:build !linux || !(amd64 || arm64)

package sockio

import "net"

func (c *Conn) bufferSizes() (rcv, snd int) { return 0, 0 }

// listenGroupOS is the portable substrate: no SO_REUSEPORT, so a
// requested multi-queue group degrades to one plain socket — callers see
// Size()==1 and run the single-queue daemon shape unchanged.
func listenGroupOS(network, addr string, n int) ([]*Conn, bool, error) {
	pc, err := net.ListenPacket(network, addr)
	if err != nil {
		return nil, false, err
	}
	c, err := NewConn(pc.(*net.UDPConn))
	if err != nil {
		pc.Close()
		return nil, false, err
	}
	return []*Conn{c}, false, nil
}
