//go:build !unix

package sockio

// msgTrunc is 0 outside unix, where the net package has no MSG_TRUNC
// flag to report: a datagram longer than its buffer surfaces there as
// whatever the platform's read returns.
const msgTrunc = 0
