package sockio

// Portable one-datagram batch logic, extracted from the fallback build
// (batch_fallback.go) into a tag-free file so the non-vectorized path
// compiles — and is tested — on every platform, including the Linux CI
// hosts that otherwise only exercise recvmmsg/sendmmsg. The fallback
// build's readBatch/writeBatch delegate here, and so does a Linux Conn
// with portable set; the contract matches the OS implementations: these
// count kernel crossings and messages (RxCalls/TxCalls/TxMsgs), the
// ReadBatch/WriteBatch wrappers count the packet tallies.

// fallbackReadBatch reads one datagram per kernel crossing into ms[0].
// The net package offers no non-blocking read, so a poll (wait false)
// reports nothing queued.
func (c *Conn) fallbackReadBatch(ms []Message, wait bool) (int, error) {
	if !wait {
		return 0, nil
	}
	n, _, flags, ap, err := c.uc.ReadMsgUDPAddrPort(ms[0].Buf, nil)
	c.stats.RxCalls.Add(1)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = ap
	ms[0].Truncated = flags&msgTrunc != 0
	ms[0].seg = 0
	return 1, nil
}

// fallbackWriteBatch sends each message with its own kernel crossing,
// stopping at the first error with the count already sent.
func (c *Conn) fallbackWriteBatch(ms []Message) (int, error) {
	for i := range ms {
		var err error
		if ms[i].Addr.IsValid() {
			_, err = c.uc.WriteToUDPAddrPort(ms[i].Buf[:ms[i].N], ms[i].Addr)
		} else {
			_, err = c.uc.Write(ms[i].Buf[:ms[i].N])
		}
		c.stats.TxCalls.Add(1)
		if err != nil {
			return i, err
		}
		c.stats.TxMsgs.Add(1)
	}
	return len(ms), nil
}
