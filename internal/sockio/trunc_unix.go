//go:build unix

package sockio

import "syscall"

// msgTrunc is the recvmsg flag the portable substrate reads to tell a
// datagram longer than its buffer from one that fit exactly.
const msgTrunc = syscall.MSG_TRUNC
