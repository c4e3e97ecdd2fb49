// Package cluster runs N in-process PEPC nodes behind a Maglev
// steering table, scaling the single-node data plane of internal/core
// to a multi-node deployment (the paper's §3.3 Demux generalized across
// servers): every user is assigned a cluster-global 24-bit sequence
// number at attach, embedded in the low bits of both its uplink TEID
// and its UE address, so one consistent-hash lookup over `key & 0xFFFFFF`
// steers both directions of the user's traffic to its owning node.
//
// Membership changes (AddNode/RemoveNode) migrate exactly the users
// whose Maglev table slots remapped, through the existing
// ExportUser/ImportUser state-transfer path — Maglev's disruption bound
// (~2·M/N table entries per single change) therefore bounds the moved
// population and the in-flight packet loss. Node failure is handled by
// restoring the dead node's slices from their last checkpoints
// (RecoverFrom, which also reconciles the crashed slices' surviving
// update queues) and scattering the recovered users to their new
// Maglev-picked owners.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pepc/internal/core"
	"pepc/internal/hdr"
	"pepc/internal/lb"
)

// Identifier scheme: the cluster owns a global 24-bit user sequence
// space and takes its identifiers from core's: a user's uplink TEID and
// UE address are core.HomeTEID/HomeUEAddr of its slice's ID and its seq,
// with slice = seq mod slices-per-node. Every node's slice i has ID i+1,
// so a user is on its home slice on whichever node owns it, and a
// migrated user keeps its identifiers and steers without an exception.
const seqMask = 1<<24 - 1

// MaxSlicesPerNode bounds the per-node slice count by the slice IDs an
// identifier prefix can carry.
const MaxSlicesPerNode = core.MaxSliceID

var (
	// ErrNoSeq is returned when the 24-bit user sequence space is
	// exhausted.
	ErrNoSeq = errors.New("cluster: user sequence space exhausted")
	// ErrUnknownNode is returned for operations naming no member.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrNodeDead is returned when an operation requires a live node.
	ErrNodeDead = errors.New("cluster: node is dead")
	// ErrNodeAlive is returned when recovery is requested for a node
	// that was never killed.
	ErrNodeAlive = errors.New("cluster: node is alive")
	// ErrUserUnknown is returned for signaling about unattached users.
	ErrUserUnknown = errors.New("cluster: user unknown")
	// ErrNoCheckpoint is returned when recovery finds no stored
	// checkpoint for a dead node.
	ErrNoCheckpoint = errors.New("cluster: no checkpoint for node")
	// ErrLastNode is returned when removing the only member. It wraps
	// lb.ErrNoBackends: removing the last node would rebuild the Maglev
	// table over an empty backend set, leaving the Steerer a stale
	// table, so the refusal surfaces the same typed cause the balancer
	// itself reports for an empty set (errors.Is works for both).
	ErrLastNode = fmt.Errorf("cluster: cannot remove the last node: %w", lb.ErrNoBackends)
)

// UplinkTEIDFor returns the uplink TEID the cluster assigns to seq.
func UplinkTEIDFor(seq uint32, slicesPerNode int) uint32 {
	return core.HomeTEID(int(seq)%slicesPerNode+1, seq)
}

// UEAddrFor returns the UE address the cluster assigns to seq.
func UEAddrFor(seq uint32, slicesPerNode int) uint32 {
	return core.HomeUEAddr(int(seq)%slicesPerNode+1, seq)
}

// SteerKey reduces a wire key (uplink TEID or downlink UE address) to
// the cluster-global user key Maglev hashes over: both directions of
// one user yield the same value.
func SteerKey(wireKey uint32) uint64 { return uint64(wireKey & seqMask) }

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the initial member count (minimum 1).
	Nodes int
	// SlicesPerNode is the per-node slice count (default 1, max
	// MaxSlicesPerNode).
	SlicesPerNode int
	// UserHint sizes each slice's tables.
	UserHint int
	// TableSize is the Maglev table size (0 → lb.DefaultTableSize).
	// Must comfortably exceed the expected user population for the
	// disruption bound to hold per-key.
	TableSize int
	// MigrateChunk is the number of users moved per rebalance chunk
	// (default 256); between chunks the target slices sync their update
	// queues so migrated users become steerable promptly.
	MigrateChunk int
	// RecordLatency arms per-packet latency recording on every slice's
	// verdict stage (see core.SliceConfig.RecordLatency); pair it with
	// Steerer ingress stamping and read the merged tail via Latency.
	RecordLatency bool
}

func (cfg Config) withDefaults() Config {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.SlicesPerNode <= 0 {
		cfg.SlicesPerNode = 1
	}
	if cfg.SlicesPerNode > MaxSlicesPerNode {
		cfg.SlicesPerNode = MaxSlicesPerNode
	}
	if cfg.UserHint <= 0 {
		cfg.UserHint = 1024
	}
	if cfg.MigrateChunk <= 0 {
		cfg.MigrateChunk = 256
	}
	return cfg
}

// member is one node plus its cluster-side bookkeeping.
type member struct {
	name string
	node *core.Node
	// attachMu serializes control-plane entry points (attach, detach,
	// import/export) per node, preserving the single-control-writer
	// discipline the slices assume without a control loop running.
	attachMu sync.Mutex
	dead     atomic.Bool
	// checkpoints holds the last CheckpointAll capture, one stream per
	// slice, for crash recovery.
	checkpoints [][]byte
}

// Cluster is a set of PEPC nodes behind one Maglev table.
type Cluster struct {
	cfg Config

	// mu guards the membership view: the balancer and the index-aligned
	// members slice flip together under the write lock, so a steer pass
	// under the read lock sees a consistent pick→node mapping.
	mu      sync.RWMutex
	bal     *lb.Balancer
	members []*member // members[i] serves balancer backend index i
	byName  map[string]*member
	epoch   atomic.Uint64 // bumped on every membership change
	nextID  int

	// rebalanceMu serializes whole-cluster reshapes (add/remove/
	// recover) so at most one bulk migration is in flight.
	rebalanceMu sync.Mutex

	// dir is the signaling directory: IMSI → seq and back. Owners are
	// never stored — they are always derived from the balancer, so the
	// directory stays valid across rebalances and recoveries.
	dirMu    sync.RWMutex
	byIMSI   map[uint64]uint32
	bySeq    map[uint32]uint64
	nextSeq  uint32
	freeSeqs []uint32
}

// New builds a cluster with cfg.Nodes members named node-0..node-N-1.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:     cfg,
		byName:  make(map[string]*member),
		byIMSI:  make(map[uint64]uint32),
		bySeq:   make(map[uint32]uint64),
		nextSeq: 1,
	}
	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d", i)
	}
	bal, err := lb.New(names, cfg.TableSize)
	if err != nil {
		return nil, err
	}
	c.bal = bal
	c.nextID = cfg.Nodes
	for _, name := range names {
		c.byName[name] = c.newMember(name)
	}
	c.rebuildView()
	return c, nil
}

func (c *Cluster) newMember(name string) *member {
	return &member{name: name, node: core.NewNode(c.sliceConfigs()...)}
}

func (c *Cluster) sliceConfigs() []core.SliceConfig {
	cfgs := make([]core.SliceConfig, c.cfg.SlicesPerNode)
	for i := range cfgs {
		cfgs[i] = core.SliceConfig{
			ID:            i + 1,
			UserHint:      c.cfg.UserHint,
			RecordLatency: c.cfg.RecordLatency,
		}
	}
	return cfgs
}

// rebuildView realigns members with the balancer's backend order.
// Callers hold c.mu.
func (c *Cluster) rebuildView() {
	names := c.bal.Backends()
	c.members = c.members[:0]
	for _, name := range names {
		c.members = append(c.members, c.byName[name])
	}
	c.epoch.Add(1)
}

// Size returns the live member count.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.members)
}

// Names returns the live member names in balancer order.
func (c *Cluster) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, len(c.members))
	for i, m := range c.members {
		names[i] = m.name
	}
	return names
}

// Node returns the named member's node (including dead ones, for
// post-mortem inspection), or nil.
func (c *Cluster) Node(name string) *core.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m := c.byName[name]; m != nil {
		return m.node
	}
	return nil
}

// Users returns the attached-user count from the signaling directory.
func (c *Cluster) Users() int {
	c.dirMu.RLock()
	defer c.dirMu.RUnlock()
	return len(c.byIMSI)
}

// SeqOf returns the cluster sequence number assigned to imsi.
func (c *Cluster) SeqOf(imsi uint64) (uint32, bool) {
	c.dirMu.RLock()
	defer c.dirMu.RUnlock()
	seq, ok := c.byIMSI[imsi]
	return seq, ok
}

// Owner returns the name of the node currently responsible for imsi
// per the balancer (which the data path also consults).
func (c *Cluster) Owner(imsi uint64) (string, bool) {
	seq, ok := c.SeqOf(imsi)
	if !ok {
		return "", false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, name, err := c.bal.Pick(uint64(seq))
	if err != nil {
		return "", false
	}
	return name, true
}

// pickMember resolves seq to its owning member under the read lock.
func (c *Cluster) pickMember(seq uint32) (*member, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	idx, _, err := c.bal.Pick(uint64(seq))
	if err != nil {
		return nil, err
	}
	return c.members[idx], nil
}

func (c *Cluster) allocSeq() (uint32, error) {
	c.dirMu.Lock()
	defer c.dirMu.Unlock()
	if n := len(c.freeSeqs); n > 0 {
		seq := c.freeSeqs[n-1]
		c.freeSeqs = c.freeSeqs[:n-1]
		return seq, nil
	}
	if c.nextSeq > seqMask {
		return 0, ErrNoSeq
	}
	seq := c.nextSeq
	c.nextSeq++
	return seq, nil
}

// Attach admits a user somewhere in the cluster: it allocates a global
// sequence number, embeds it in the assigned TEID/UE address pair, and
// runs the attach procedure on the Maglev-picked node. Returns the
// owning node's name alongside the attach result.
func (c *Cluster) Attach(spec core.AttachSpec) (core.AttachResult, string, error) {
	c.dirMu.RLock()
	_, dup := c.byIMSI[spec.IMSI]
	c.dirMu.RUnlock()
	if dup {
		return core.AttachResult{}, "", fmt.Errorf("cluster: IMSI %d already attached", spec.IMSI)
	}
	seq, err := c.allocSeq()
	if err != nil {
		return core.AttachResult{}, "", err
	}
	sliceIdx := int(seq) % c.cfg.SlicesPerNode
	spec.AssignedUplinkTEID = UplinkTEIDFor(seq, c.cfg.SlicesPerNode)
	spec.AssignedUEAddr = UEAddrFor(seq, c.cfg.SlicesPerNode)
	for {
		m, err := c.pickMember(seq)
		if err != nil {
			c.releaseSeq(seq)
			return core.AttachResult{}, "", err
		}
		m.attachMu.Lock()
		// Revalidate under the attach lock: a membership change between
		// the pick and the lock would otherwise land the user on a node
		// the balancer no longer maps its key to (or on a killed node's
		// carcass), stranding it where neither steering nor a rebalance
		// snapshot can see it. Reshapes barrier on attachMu after every
		// balancer flip, so a pick that validates here is final.
		if m2, err2 := c.pickMember(seq); err2 != nil || m2 != m || m.dead.Load() {
			m.attachMu.Unlock()
			if err2 != nil {
				c.releaseSeq(seq)
				return core.AttachResult{}, "", err2
			}
			continue
		}
		res, err := m.node.AttachUser(sliceIdx, spec)
		if err != nil {
			m.attachMu.Unlock()
			c.releaseSeq(seq)
			return core.AttachResult{}, "", err
		}
		// The directory insert stays inside the attach lock so a reshape
		// that barriers on it sees node state and directory move together.
		c.dirMu.Lock()
		c.byIMSI[spec.IMSI] = seq
		c.bySeq[seq] = spec.IMSI
		c.dirMu.Unlock()
		m.attachMu.Unlock()
		return res, m.name, nil
	}
}

// Detach removes a user wherever it lives and recycles its sequence
// number.
func (c *Cluster) Detach(imsi uint64) error {
	c.dirMu.RLock()
	seq, ok := c.byIMSI[imsi]
	c.dirMu.RUnlock()
	if !ok {
		return ErrUserUnknown
	}
	sliceIdx := int(seq) % c.cfg.SlicesPerNode
	for {
		m, err := c.pickMember(seq)
		if err != nil {
			return err
		}
		m.attachMu.Lock()
		// Same revalidation as Attach: detach on the node the balancer
		// maps the user to right now, not the one picked a moment ago.
		// A detach that still misses (the user is mid-export in a
		// concurrent reshape) errors and leaves the directory intact.
		if m2, err2 := c.pickMember(seq); err2 != nil || m2 != m || m.dead.Load() {
			m.attachMu.Unlock()
			if err2 != nil {
				return err2
			}
			continue
		}
		err = m.node.DetachUser(sliceIdx, imsi)
		if err != nil {
			m.attachMu.Unlock()
			return err
		}
		c.dirMu.Lock()
		delete(c.byIMSI, imsi)
		delete(c.bySeq, seq)
		c.dirMu.Unlock()
		m.attachMu.Unlock()
		c.releaseSeq(seq)
		return nil
	}
}

func (c *Cluster) releaseSeq(seq uint32) {
	c.dirMu.Lock()
	c.freeSeqs = append(c.freeSeqs, seq)
	c.dirMu.Unlock()
}

// SyncAll applies pending control→data updates on every live slice —
// the inline-harness substitute for running data workers.
func (c *Cluster) SyncAll() {
	c.mu.RLock()
	members := append([]*member(nil), c.members...)
	c.mu.RUnlock()
	for _, m := range members {
		for i := 0; i < m.node.NumSlices(); i++ {
			m.node.Slice(i).Data().SyncUpdates()
		}
	}
}

// Stats aggregates demux counters across live members.
type Stats struct {
	Steered uint64
	Unknown uint64
}

// Stats returns cluster-wide steering counters. Unknown counts packets
// no node could steer; one reaching a node not (or not yet) serving its
// user — the disruption currency of rebalancing and failures — is
// counted Missed by its home slice there.
func (c *Cluster) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var st Stats
	for _, m := range c.members {
		st.Steered += m.node.Demux().Steered.Load()
		st.Unknown += m.node.Demux().Unknown.Load()
	}
	return st
}

// Latency merges ingress-to-verdict latency histograms from every live
// member's slices into one cluster-wide readout snapshot (populated
// when Config.RecordLatency is set and the feeding Steerers stamp
// ingress). Lock-free against running data workers — each slice's
// per-direction recorders are merged atomically; dead members are
// skipped, so a readout spanning a failure reflects only what survivors
// measured.
func (c *Cluster) Latency() *hdr.Histogram {
	c.mu.RLock()
	members := append([]*member(nil), c.members...)
	c.mu.RUnlock()
	m := hdr.New()
	for _, mb := range members {
		if mb.dead.Load() {
			continue
		}
		for i := 0; i < mb.node.NumSlices(); i++ {
			mb.node.Slice(i).Data().MergeLatency(m)
		}
	}
	return m
}

// TotalAttached sums Users() over every live node's slices — the
// ground truth the directory is checked against in tests.
func (c *Cluster) TotalAttached() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, m := range c.members {
		for i := 0; i < m.node.NumSlices(); i++ {
			total += m.node.Slice(i).Users()
		}
	}
	return total
}
