package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"pepc/internal/pfcp"
	"pepc/internal/pkt"
	"pepc/internal/sim"
)

// modelUser is one user of the route model: its identifiers, the slice
// serving it and, for an N4 session, the UPF's session id.
type modelUser struct {
	imsi       uint64
	teid, addr uint32
	slice      int
	seid       uint64
}

// TestDemuxRoutesMatchModel checks arithmetic steering against the
// per-user maps it replaced, kept here as a plain map[key]slice model. A
// seeded random schedule over three slices attaches and detaches users,
// migrates them there and back, aborts migrations, exports and imports
// them onto a slice that is not their home, re-registers restored slices
// and establishes and deletes N4 sessions with foreign F-TEIDs and UE
// addresses. After every operation each live and recently dead key is
// steered, alternately through Node.Steer* and a WireSteer, and processed:
// a live key must reach its user's slice and forward, a dead key its
// home slice and be missed there, or, with no home, count Unknown.
func TestDemuxRoutesMatchModel(t *testing.T) {
	n := newTestNode(t, 3) // slice i has ID i+1
	upf := NewUPF(n, pkt.IPv4Addr(127, 0, 0, 1))
	n4Associate(t, upf)
	pool := pkt.NewPool(2048, 256)
	ws := n.NewWireSteer(1, nil)
	rng := rand.New(rand.NewSource(32))

	model := map[demuxKey]int{}
	addrOf := map[demuxKey]uint32{} // a live key's UE address, for uplink probes
	var dead []demuxKey
	var users []*modelUser
	nextIMSI, nextN4 := uint64(1000), uint32(1)

	// homeOf is the dead-key rule, from the identifier scheme's prefixes
	// (TEID ID+16, UE address ID+10) rather than the demux's table.
	homeOf := func(k demuxKey) int {
		base := uint32(10)
		if k.uplink() {
			base = 16
		}
		if s := int(uint32(k)>>24) - int(base) - 1; s >= 0 && s < 3 {
			return s
		}
		return -1
	}
	live := func(u *modelUser, slice int) {
		u.slice = slice
		for _, k := range [2]demuxKey{keyOf(u.teid, true), keyOf(u.addr, false)} {
			model[k] = slice
			addrOf[k] = u.addr
		}
	}
	kill := func(u *modelUser) {
		for _, k := range [2]demuxKey{keyOf(u.teid, true), keyOf(u.addr, false)} {
			delete(model, k)
			dead = append(dead, k)
		}
		if len(dead) > 48 {
			dead = dead[len(dead)-48:]
		}
	}
	drop := func(i int) *modelUser {
		u := users[i]
		users[i] = users[len(users)-1]
		users = users[:len(users)-1]
		return u
	}

	// probe steers one packet for k and processes whatever slice it
	// reached, reporting the slice (-1: Unknown) and whether it forwarded.
	probe := func(k demuxKey, viaWire bool) (int, bool) {
		var b *pkt.Buf
		if k.uplink() {
			b = buildUplink(pool, uint32(k), addrOf[k], 1, 2, 80)
		} else {
			b = buildDownlink(pool, uint32(k), 80)
		}
		unknown := n.Demux().Unknown.Load()
		switch {
		case viaWire:
			ws.Steer([]*pkt.Buf{b})
		case k.uplink():
			n.SteerUplink(b)
		default:
			n.SteerDownlink(b)
		}
		if n.Demux().Unknown.Load() != unknown {
			return -1, false
		}
		one := make([]*pkt.Buf, 1)
		for i := 0; i < n.NumSlices(); i++ {
			s := n.Slice(i)
			fwd := s.Data().Forwarded.Load()
			if k.uplink() && s.Uplink.DequeueBatch(one) == 1 {
				s.Data().ProcessUplinkBatch(one, sim.Now())
			} else if !k.uplink() && s.Downlink.DequeueBatch(one) == 1 {
				s.Data().ProcessDownlinkBatch(one, sim.Now())
			} else {
				continue
			}
			drainEgress(s)
			return i, s.Data().Forwarded.Load() == fwd+1
		}
		t.Fatalf("key %#x: packet neither steered nor counted unknown", uint64(k))
		return 0, false
	}
	check := func(step int, op string) {
		t.Helper()
		for i := 0; i < n.NumSlices(); i++ {
			n.Slice(i).Data().SyncUpdates()
		}
		viaWire := step%2 == 1
		for k, want := range model {
			if got, fwd := probe(k, viaWire); got != want || !fwd {
				t.Fatalf("step %d (%s): live key %#x reached slice %d (forwarded %v), model says %d",
					step, op, uint64(k), got, fwd, want)
			}
		}
		for _, k := range dead {
			if _, ok := model[k]; ok {
				continue // recycled into a live user
			}
			if got, fwd := probe(k, viaWire); got != homeOf(k) || fwd {
				t.Fatalf("step %d (%s): dead key %#x reached slice %d (forwarded %v), home is %d",
					step, op, uint64(k), got, fwd, homeOf(k))
			}
		}
	}
	other := func(s int) int { return (s + 1 + rng.Intn(2)) % 3 }
	pick4G := func() int {
		for range 8 {
			if i := rng.Intn(len(users)); users[i].seid == 0 {
				return i
			}
		}
		return -1
	}

	var counts [9]int
	for step := 0; step < 240; step++ {
		op := rng.Intn(9)
		if len(users) < 4 {
			op = 0
		}
		i := -1
		if op >= 1 && op <= 5 {
			if i = pick4G(); i < 0 {
				op = 0
			}
		}
		counts[op]++
		switch op {
		case 0: // attach
			s := rng.Intn(3)
			nextIMSI++
			res, err := n.AttachUser(s, AttachSpec{IMSI: nextIMSI, ENBAddr: 1, DownlinkTEID: 0x700 + uint32(nextIMSI)})
			if err != nil {
				t.Fatalf("step %d: attach: %v", step, err)
			}
			u := &modelUser{imsi: nextIMSI, teid: res.UplinkTEID, addr: res.UEAddr}
			live(u, s)
			users = append(users, u)
			check(step, "attach")
		case 1: // detach
			u := drop(i)
			if err := n.DetachUser(u.slice, u.imsi); err != nil {
				t.Fatalf("step %d: detach: %v", step, err)
			}
			kill(u)
			check(step, "detach")
		case 2: // migrate there and back
			u, src := users[i], users[i].slice
			dst := other(src)
			if err := n.Scheduler().MigrateUser(u.imsi, src, dst); err != nil {
				t.Fatalf("step %d: migrate %d→%d: %v", step, src, dst, err)
			}
			live(u, dst)
			check(step, "migrate there")
			if err := n.Scheduler().MigrateUser(u.imsi, dst, src); err != nil {
				t.Fatalf("step %d: migrate %d→%d: %v", step, dst, src, err)
			}
			live(u, src)
			check(step, "migrate back")
		case 3: // aborted migration: the IMSI is already on the target
			u := users[i]
			dst := other(u.slice)
			dup, err := n.Slice(dst).Control().Attach(AttachSpec{IMSI: u.imsi, ENBAddr: 1, DownlinkTEID: 9})
			if err != nil {
				t.Fatalf("step %d: duplicate attach: %v", step, err)
			}
			if err := n.Scheduler().MigrateUser(u.imsi, u.slice, dst); !errors.Is(err, ErrUserExists) {
				t.Fatalf("step %d: migration onto a duplicate: %v, want ErrUserExists", step, err)
			}
			if err := n.Slice(dst).Control().Detach(u.imsi); err != nil {
				t.Fatalf("step %d: duplicate detach: %v", step, err)
			}
			kill(&modelUser{teid: dup.UplinkTEID, addr: dup.UEAddr})
			check(step, "aborted migration")
		case 4: // export, then import onto a slice that is not home
			u := users[i]
			msg, err := n.Scheduler().ExportUser(u.imsi, u.slice)
			if err != nil {
				t.Fatalf("step %d: export: %v", step, err)
			}
			kill(u)
			check(step, "export")
			dst := other(homeOf(keyOf(u.teid, true)))
			if err := n.Scheduler().ImportUser(msg, dst); err != nil {
				t.Fatalf("step %d: import: %v", step, err)
			}
			live(u, dst)
			check(step, "import")
		case 5: // re-register a restored slice's users
			if _, err := n.RegisterRestored(users[i].slice); err != nil {
				t.Fatal(err)
			}
			check(step, "register restored")
		case 6, 7: // N4 establishment, foreign F-TEID and UE address
			teid, addr := 0x5E00_0000|nextN4, pkt.IPv4Addr(45, 0, 0, 0)|nextN4
			nextN4++
			r := n4Exchange(t, upf, pfcp.BuildSessionEstablishment(nextN4, n4SessionReq(uint64(nextN4), teid, addr, 1, 0xD000_0000|nextN4)))
			sr, err := pfcp.ParseSessionResponse(&r)
			if err != nil || sr.Cause != pfcp.CauseAccepted {
				t.Fatalf("step %d: establishment: cause %d err %v", step, sr.Cause, err)
			}
			u := &modelUser{imsi: n4IMSIBase | sr.FSEID, teid: teid, addr: addr, seid: sr.FSEID}
			live(u, upf.sessions[sr.FSEID].slice)
			users = append(users, u)
			check(step, "n4 establish")
		case 8: // N4 deletion
			for j, u := range users {
				if u.seid == 0 {
					continue
				}
				drop(j)
				n4Exchange(t, upf, pfcp.BuildSessionDeletion(nextN4, u.seid))
				upf.Flush()
				kill(u)
				break
			}
			check(step, "n4 delete")
		}
	}
	for op, c := range counts {
		if c == 0 {
			t.Fatalf("operation %d never ran; schedule %v", op, counts)
		}
	}
}

// TestNewNodeRejectsSharedPrefixes: two slices with one ID would share
// an identifier prefix, and an ID past MaxSliceID puts its TEID prefix
// in the IoT pool or wraps it; under arithmetic steering each is a
// misroute, so NewNode refuses, naming the slice (the operator config's
// cases are in TestLoadOperatorConfigRejectsBadInput).
func TestNewNodeRejectsSharedPrefixes(t *testing.T) {
	cases := map[string]struct {
		cfgs []SliceConfig
		want string
	}{
		"zero ID takes a taken index": {[]SliceConfig{{ID: 1}, {}}, "slice 1: id 1 already taken by slice 0"},
		"duplicate ID":                {[]SliceConfig{{ID: 3}, {ID: 2}, {ID: 3}}, "slice 2: id 3 already taken by slice 0"},
		"TEID prefix in the IoT pool": {[]SliceConfig{{ID: 1}, {ID: MaxSliceID + 1}}, "slice 1: id 208"},
		"prefix wraps":                {[]SliceConfig{{ID: 240}}, "slice 0: id 240"},
		"negative ID":                 {[]SliceConfig{{ID: -1}}, "slice 0: id -1"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("NewNode panicked with %v, want an error containing %q", err, c.want)
				}
			}()
			NewNode(c.cfgs...)
		})
	}
	n := NewNode(SliceConfig{ID: MaxSliceID}, SliceConfig{})
	if s, ok := n.Demux().LookupSlice(HomeTEID(MaxSliceID, 1)); !ok || s != 0 {
		t.Fatalf("largest ID's TEID steers to %d %v", s, ok)
	}
	if s, ok := n.Demux().LookupSliceByIP(HomeUEAddr(1, 1)); !ok || s != 1 {
		t.Fatalf("index-assigned ID's address steers to %d %v", s, ok)
	}
}
