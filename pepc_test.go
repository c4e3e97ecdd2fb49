package pepc_test

import (
	"testing"

	"pepc"
)

// The facade tests exercise the library exactly as an external consumer
// would: construct a node, wire backends, attach users, and verify the
// public behaviours hold together.

func TestFacadeAttachAndMigrate(t *testing.T) {
	hss := pepc.NewHSS()
	hss.ProvisionRange(1, 100, 10e6, 50e6)
	node := pepc.NewNode(
		pepc.SliceConfig{ID: 1, UserHint: 128},
		pepc.SliceConfig{ID: 2, UserHint: 128},
	)
	node.AttachProxy(pepc.NewProxy(hss, pepc.NewPCRF()))

	res, err := node.AttachUser(0, pepc.AttachSpec{IMSI: 7, DownlinkTEID: 0x70, ENBAddr: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.UplinkTEID == 0 || res.UEAddr == 0 {
		t.Fatalf("result: %+v", res)
	}
	if node.Slice(0).Users() != 1 {
		t.Fatal("user not on slice 0")
	}
	if err := node.Scheduler().MigrateUser(7, 0, 1); err != nil {
		t.Fatal(err)
	}
	if node.Slice(1).Users() != 1 || node.Slice(0).Users() != 0 {
		t.Fatal("migration did not move the user")
	}
}

func TestFacadeUnknownSubscriberRejected(t *testing.T) {
	node := pepc.NewNode(pepc.SliceConfig{ID: 1})
	node.AttachProxy(pepc.NewProxy(pepc.NewHSS(), nil))
	if _, err := node.AttachUser(0, pepc.AttachSpec{IMSI: 404}); err == nil {
		t.Fatal("unknown subscriber attached")
	}
}

func TestFacadeTrafficThroughSlice(t *testing.T) {
	s := pepc.NewSlice(pepc.SliceConfig{ID: 3, UserHint: 64})
	res, err := s.Control().Attach(pepc.AttachSpec{IMSI: 9, ENBAddr: 1, DownlinkTEID: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Data().SyncUpdates()
	gen := pepc.NewTrafficGen(pepc.TrafficConfig{CoreAddr: s.Config().CoreAddr},
		[]pepc.User{{IMSI: 9, UplinkTEID: res.UplinkTEID, UEAddr: res.UEAddr}})
	batch := []*pepc.Buf{gen.NextUplink()}
	s.Data().ProcessUplinkBatch(batch, 0)
	if s.Data().Forwarded.Load() != 1 {
		t.Fatalf("forwarded=%d missed=%d", s.Data().Forwarded.Load(), s.Data().Missed.Load())
	}
	out, ok := s.Egress.Dequeue()
	if !ok {
		t.Fatal("no egress")
	}
	out.Free()
}
