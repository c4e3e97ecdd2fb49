//go:build !linux || !(amd64 || arm64)

package sockio

// This is the portable substrate: no vectorized syscalls, so each batch
// call degenerates to one datagram per kernel crossing through the
// standard net package (the tag-free logic in batch_portable.go). The
// batch API shape (and the Receiver/Sender machinery above it) is
// unchanged, so callers are oblivious — they just measure
// syscalls/packet ≈ 1.

// Batched reports whether this platform performs true vectorized I/O.
func Batched() bool { return false }

type rxState struct{}
type txState struct{}

func (c *Conn) initOS() {}

func (c *Conn) readBatch(ms []Message, wait bool) (int, error) {
	if !wait {
		return 0, nil // the net package offers no non-blocking read
	}
	return c.fallbackReadBatch(ms)
}

func (c *Conn) writeBatch(ms []Message) (int, error) {
	return c.fallbackWriteBatch(ms)
}
