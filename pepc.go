// Package pepc is a Go implementation of PEPC, the high-performance
// software Evolved Packet Core of "A High Performance Packet Core for
// Next Generation Cellular Networks" (SIGCOMM 2017).
//
// PEPC consolidates all state for a user device into a single location —
// a slice — and splits processing into a control thread (signaling:
// attach, handover, policy) and a data thread (GTP-U, PCEF, QoS,
// charging) that share that state under a single-writer lock discipline.
// A PEPC node hosts many slices behind a Demux, a Scheduler that can
// migrate individual users between slices without packet loss, and a
// Proxy that speaks Diameter S6a/Gx to the HSS and PCRF backends.
//
// Quick start:
//
//	node := pepc.NewNode(pepc.SliceConfig{ID: 1})
//	hss := pepc.NewHSS()
//	hss.ProvisionRange(1000, 100, 10e6, 50e6)
//	node.AttachProxy(pepc.NewProxy(hss, pepc.NewPCRF()))
//	res, err := node.AttachUser(0, pepc.AttachSpec{IMSI: 1000})
//	// run the data thread with go node.Slice(0).RunData(stop) (it parks
//	// when idle), steer GTP-U traffic in with node.SteerUplink, read
//	// egress from node.Slice(0).Egress.
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory and experiment index.
package pepc

import (
	"io"
	"time"

	"pepc/internal/cluster"
	"pepc/internal/core"
	"pepc/internal/enb"
	"pepc/internal/fault"
	"pepc/internal/hss"
	"pepc/internal/pcef"
	"pepc/internal/pcrf"
	"pepc/internal/pkt"
	"pepc/internal/sctp"
	"pepc/internal/state"
	"pepc/internal/workload"
)

// Core types, re-exported for library consumers.
type (
	// Node is a PEPC server: slices + demux + scheduler + proxy.
	Node = core.Node
	// Slice is one PEPC slice (control thread + data thread + state).
	Slice = core.Slice
	// SliceConfig parameterizes a slice.
	SliceConfig = core.SliceConfig
	// AttachSpec carries attach parameters.
	AttachSpec = core.AttachSpec
	// AttachResult reports granted identifiers.
	AttachResult = core.AttachResult
	// Proxy bridges slices to HSS/PCRF backends over Diameter.
	Proxy = core.Proxy
	// S1APServer terminates eNodeB signaling on a slice control plane.
	S1APServer = core.S1APServer
	// Scheduler manages slices and user migration.
	Scheduler = core.Scheduler
	// Demux steers traffic to slices.
	Demux = core.Demux

	// HSS is the home subscriber server backend.
	HSS = hss.HSS
	// Subscriber is one HSS record.
	Subscriber = hss.Subscriber
	// PCRF is the policy backend.
	PCRF = pcrf.PCRF
	// PCCRule is a policy and charging control rule installed into the
	// PCEF.
	PCCRule = pcef.Rule

	// ENB is the eNodeB emulator.
	ENB = enb.ENB
	// UE is an emulated device.
	UE = enb.UE

	// User is a generator-facing user descriptor.
	User = workload.User
	// TrafficGen generates user-plane packets.
	TrafficGen = workload.TrafficGen
	// TrafficConfig parameterizes traffic generation.
	TrafficConfig = workload.TrafficConfig

	// UEContext is the consolidated per-user state.
	UEContext = state.UE
	// Buf is an mbuf-style packet buffer.
	Buf = pkt.Buf

	// CallPolicy bounds proxy backend calls: per-call deadline, bounded
	// retries with backoff and a circuit breaker (DESIGN.md §4.12).
	// Install with Proxy.SetPolicy; the zero value (no policy) keeps the
	// legacy synchronous path.
	CallPolicy = core.CallPolicy
	// ProxyStats counts proxy requests, retries, timeouts, breaker
	// opens and short-circuited calls.
	ProxyStats = core.ProxyStats
	// RecoveryReport summarizes what Slice.RecoverFrom rebuilt after a
	// slice crash: checkpointed users restored, queued updates replayed,
	// detaches completed, signaling events adopted.
	RecoveryReport = core.RecoveryReport
	// UPF is the node's N4 (PFCP) endpoint: an SMF's sessions mapped
	// onto slice users, with modification/deletion riding the batched
	// signaling path. Serve it from a UDP listener with Handle + Flush.
	UPF = core.UPF
	// N4Stats snapshots the UPF's PFCP message counters.
	N4Stats = core.N4Stats
	// FaultInjector is the deterministic, seedable fault injector the
	// chaos soak drives; arm it on a Proxy (SetGxFaults) or a Slice
	// (SetFaults).
	FaultInjector = fault.Injector
	// FaultKind identifies one injectable failure class.
	FaultKind = fault.Kind
	// FaultPlan is a reproducible set of per-kind rates and delays.
	FaultPlan = fault.Plan

	// Cluster fronts N PEPC nodes behind one Maglev table: cluster-wide
	// attach/identifier allocation, batched wire steering, live
	// add/remove rebalancing and checkpoint-based node recovery
	// (DESIGN.md §4.15).
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes a cluster.
	ClusterConfig = cluster.Config
	// ClusterSteerer is the cluster's batched, allocation-free wire
	// steering path: classify once, one Maglev batch pick, run-coalesced
	// hand-off to the owning node's demux.
	ClusterSteerer = cluster.Steerer
	// RebalanceReport summarizes one AddNode/RemoveNode migration.
	RebalanceReport = cluster.RebalanceReport
	// NodeRecoveryReport summarizes a RecoverNode rebuild: slices
	// restored from checkpoints, queued updates replayed, users
	// scattered to their current owners, orphans forgotten.
	NodeRecoveryReport = cluster.RecoveryReport
)

// NewCluster creates a cluster of in-process PEPC nodes behind a Maglev
// table.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Injectable failure classes, re-exported for soak drivers.
const (
	FaultDiameterDrop  = fault.DiameterDrop
	FaultDiameterDelay = fault.DiameterDelay
	FaultDiameterError = fault.DiameterError
	FaultSCTPLoss      = fault.SCTPLoss
	FaultRingOverflow  = fault.RingOverflow
	FaultWorkerStall   = fault.WorkerStall
	FaultSliceCrash    = fault.SliceCrash
	// FaultRateMax is the always-fire rate denominator.
	FaultRateMax = fault.RateMax
)

// NewFaultInjector creates a disarmed injector; the same seed replays
// the same fault decisions.
func NewFaultInjector(seed uint64) *FaultInjector { return fault.New(seed) }

// FaultEpochPlan derives the deterministic fault plan the chaos soak
// applies for one (seed, epoch) pair over the given kinds.
func FaultEpochPlan(seed uint64, epoch int, maxRate uint32, maxDelay time.Duration, kinds ...FaultKind) FaultPlan {
	return fault.EpochPlan(seed, epoch, maxRate, maxDelay, kinds...)
}

// NewNode creates a PEPC node with the given slices.
func NewNode(cfgs ...SliceConfig) *Node { return core.NewNode(cfgs...) }

// NewUPF creates the node's N4 endpoint with the given node identity
// (IPv4, host order).
func NewUPF(node *Node, nodeAddr uint32) *UPF { return core.NewUPF(node, nodeAddr) }

// NewSlice creates a standalone slice (no node wrapper).
func NewSlice(cfg SliceConfig) *Slice { return core.NewSlice(cfg) }

// NewHSS creates an empty subscriber database.
func NewHSS() *HSS { return hss.New() }

// NewPCRF creates an empty policy backend.
func NewPCRF() *PCRF { return pcrf.New() }

// NewProxy wires a node proxy to its backends.
func NewProxy(h *HSS, p *PCRF) *Proxy { return core.NewProxy(h, p) }

// EnablePolicyPush subscribes a node to the PCRF's unsolicited Gx rule
// installs (RAR): pushed rules reach the owning slice's PCEF and the
// user's control state.
func EnablePolicyPush(n *Node, p *PCRF) { n.EnablePolicyPush(p) }

// NewS1APServer binds an S1AP server to a slice's control plane and an
// SCTP association. For a slice inside a node prefer Node.ServeS1AP,
// which also registers attached users with the node demux.
func NewS1APServer(s *Slice, assoc *sctp.Assoc) *S1APServer {
	return core.NewS1APServer(s.Control(), assoc)
}

// NewENB creates an eNodeB emulator on an established association.
func NewENB(addr uint32, tai uint16, ecgi uint32, assoc *sctp.Assoc) *ENB {
	return enb.New(addr, tai, ecgi, assoc)
}

// NewUE creates an emulated device whose key matches HSS bulk
// provisioning.
func NewUE(imsi uint64) *UE { return enb.NewUE(imsi) }

// SCTPPipe returns two connected in-memory SCTP wires for in-process
// eNodeB↔core signaling; pass them to SCTPDial/SCTPAccept.
func SCTPPipe(depth int) (*sctp.PipeWire, *sctp.PipeWire) { return sctp.Pipe(depth) }

// SCTPDial initiates an association (eNodeB side).
func SCTPDial(w sctp.Wire, cfg sctp.Config) (*sctp.Assoc, error) { return sctp.Dial(w, cfg) }

// SCTPAccept waits for an association (core side).
func SCTPAccept(w sctp.Wire, cfg sctp.Config) (*sctp.Assoc, error) { return sctp.Accept(w, cfg) }

// SCTPConfig parameterizes an association.
type SCTPConfig = sctp.Config

// NewTrafficGen builds a packet generator over attached users.
func NewTrafficGen(cfg TrafficConfig, users []User) *TrafficGen {
	return workload.NewTrafficGen(cfg, users)
}

// OperatorConfig is the JSON-loadable node description (slices, IoT
// pools, PCC rules).
type OperatorConfig = core.OperatorConfig

// LoadOperatorConfig parses a JSON operator configuration.
func LoadOperatorConfig(r io.Reader) (OperatorConfig, error) {
	return core.LoadOperatorConfig(r)
}

// BuildNode instantiates a node from an operator configuration.
func BuildNode(cfg OperatorConfig) (*Node, error) { return core.BuildNode(cfg) }
