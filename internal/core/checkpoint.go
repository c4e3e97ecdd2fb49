package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"pepc/internal/state"
)

// This file implements the failure-handling direction the paper sketches
// in §8: "if a PEPC node fails, both the user's data and control traffic
// cannot be processed until the necessary user state is recovered. To
// handle failures in PEPC, we can borrow from recent work on providing
// fault tolerance for middleboxes." The consolidated by-user state makes
// that borrowing trivial: a slice checkpoint is just the stream of the
// same per-user snapshots migration already uses, and recovery is a bulk
// install. Checkpoints can be written periodically to stable storage or
// streamed to a standby node.

// Checkpoint stream format: magic, version, user count, then one
// fixed-size snapshot per user, then a CRC32C trailer over everything
// prior.
var checkpointMagic = [8]byte{'P', 'E', 'P', 'C', 'C', 'K', 'P', '1'}

// Checkpoint errors.
var (
	ErrBadCheckpoint = errors.New("core: bad checkpoint stream")
)

// Checkpoint serializes every user of the slice to w. It runs on the
// control side (snapshots take the per-user read locks briefly); the
// data plane keeps running — the checkpoint is crash-consistent per
// user, like the rollback-recovery systems the paper cites.
func (s *Slice) Checkpoint(w io.Writer) (users int, err error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	out := io.MultiWriter(bw, crc)

	if _, err := out.Write(checkpointMagic[:]); err != nil {
		return 0, err
	}
	// Collect snapshots first so the count prefix is exact even if users
	// churn while we write.
	var snaps [][state.SnapshotSize]byte
	s.cp.Range(func(ue *state.UE) bool {
		cs, cnt := ue.Snapshot()
		var buf [state.SnapshotSize]byte
		if _, e := state.MarshalSnapshot(buf[:], &cs, &cnt); e != nil {
			err = e
			return false
		}
		snaps = append(snaps, buf)
		return true
	})
	if err != nil {
		return 0, err
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(snaps)))
	if _, err := out.Write(cnt[:]); err != nil {
		return 0, err
	}
	for i := range snaps {
		if _, err := out.Write(snaps[i][:]); err != nil {
			return 0, err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := bw.Write(trailer[:]); err != nil {
		return 0, err
	}
	return len(snaps), bw.Flush()
}

// RestoreCheckpoint loads a checkpoint produced by Checkpoint into the
// slice (a fresh slice on the recovery node), installing each user into
// the control store and notifying the data plane. Users already present
// are skipped (idempotent replay). It returns the number installed.
func (s *Slice) RestoreCheckpoint(r io.Reader) (users int, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	tr := io.TeeReader(br, crc)

	var magic [8]byte
	if _, err := io.ReadFull(tr, magic[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if magic != checkpointMagic {
		return 0, fmt.Errorf("%w: magic mismatch", ErrBadCheckpoint)
	}
	var cntBuf [4]byte
	if _, err := io.ReadFull(tr, cntBuf[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	n := binary.LittleEndian.Uint32(cntBuf[:])

	installed := 0
	var snap [state.SnapshotSize]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(tr, snap[:]); err != nil {
			return installed, fmt.Errorf("%w: truncated at user %d: %v", ErrBadCheckpoint, i, err)
		}
		var cs state.ControlState
		var cnt state.CounterState
		if err := state.UnmarshalSnapshot(snap[:], &cs, &cnt); err != nil {
			return installed, fmt.Errorf("%w: user %d: %v", ErrBadCheckpoint, i, err)
		}
		if s.cp.LookupIMSI(cs.IMSI) != nil {
			continue // idempotent replay
		}
		if err := s.ctrl.install(cs, cnt, cs.LastActive); err != nil {
			return installed, err
		}
		installed++
	}
	wantCRC := crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return installed, fmt.Errorf("%w: missing trailer: %v", ErrBadCheckpoint, err)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != wantCRC {
		return installed, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	return installed, nil
}

// RegisterRestored re-registers every user of a restored slice with the
// node demux (recovery node side: the balancer has redirected the failed
// node's virtual-IP share here).
func (n *Node) RegisterRestored(sliceIdx int) (int, error) {
	s := n.Slice(sliceIdx)
	if s == nil {
		return 0, ErrSliceRange
	}
	count := 0
	s.cp.Range(func(ue *state.UE) bool {
		cs, _ := ue.Snapshot()
		n.demux.Register(cs.UplinkTEID, cs.UEAddr, cs.IMSI, sliceIdx)
		count++
		return true
	})
	return count, nil
}
