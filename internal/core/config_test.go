package core

import (
	"strings"
	"testing"

	"pepc/internal/pkt"
	"pepc/internal/sim"
)

const sampleConfig = `{
  "slices": [
    {
      "id": 1,
      "users": 1000,
      "core_addr": "172.16.0.10",
      "rules": [
        {"id": 1, "precedence": 1, "action": "drop", "proto": "tcp",
         "dst_port_lo": 25, "dst_port_hi": 25},
        {"id": 2, "precedence": 10, "action": "rate-limit", "rate_mbps": 5,
         "dst_cidr": "10.9.0.0/16", "charging_key": 7}
      ]
    },
    {
      "id": 2,
      "users": 500,
      "sync_every": 16,
      "iot_pool_size": 100
    }
  ]
}`

func TestLoadOperatorConfig(t *testing.T) {
	cfg, err := LoadOperatorConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Slices) != 2 || cfg.Slices[0].ID != 1 || len(cfg.Slices[0].Rules) != 2 {
		t.Fatalf("parsed: %+v", cfg)
	}
}

func TestLoadOperatorConfigRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty slices":   `{"slices": []}`,
		"zero id":        `{"slices": [{"id": 0}]}`,
		"duplicate id":   `{"slices": [{"id": 1}, {"id": 1}]}`,
		"unknown field":  `{"slices": [{"id": 1, "bogus": true}]}`,
		"bad action":     `{"slices": [{"id": 1, "rules": [{"id": 1, "action": "explode"}]}]}`,
		"bad proto":      `{"slices": [{"id": 1, "rules": [{"id": 1, "proto": "carrier-pigeon"}]}]}`,
		"bad cidr":       `{"slices": [{"id": 1, "rules": [{"id": 1, "dst_cidr": "10.0.0.0/40"}]}]}`,
		"bad port range": `{"slices": [{"id": 1, "rules": [{"id": 1, "dst_port_lo": 10, "dst_port_hi": 5}]}]}`,
		"not json":       `slices: nope`,
		// Spellings the Sscanf parsers used to accept by stopping at the
		// first non-matching byte.
		"core_addr extra octet":    `{"slices": [{"id": 1, "core_addr": "10.0.0.1.9"}]}`,
		"core_addr trailing junk":  `{"slices": [{"id": 1, "core_addr": "10.0.0.1 junk"}]}`,
		"core_addr ipv6":           `{"slices": [{"id": 1, "core_addr": "::1"}]}`,
		"cidr trailing junk":       `{"slices": [{"id": 1, "rules": [{"id": 1, "src_cidr": "10.0.0.0/8x"}]}]}`,
		"cidr extra octet":         `{"slices": [{"id": 1, "rules": [{"id": 1, "dst_cidr": "10.0.0.0.0/8"}]}]}`,
		"cidr without length":      `{"slices": [{"id": 1, "rules": [{"id": 1, "dst_cidr": "10.0.0.0"}]}]}`,
		"bytes after the object":   `{"slices": [{"id": 1}]} {"slices": []}`,
		"garbage after the object": `{"slices": [{"id": 1}]} junk`,
		// Identifier prefixes: a TEID prefix in the IoT pool, one that
		// wraps.
		"id past MaxSliceID": `{"slices": [{"id": 208}]}`,
		"id wraps a prefix":  `{"slices": [{"id": 1}, {"id": 250}]}`,
	}
	for name, raw := range cases {
		if _, err := LoadOperatorConfig(strings.NewReader(raw)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// rejectsRetired checks that a config naming a retired knob fails
// loudly, naming the field, rather than running other than its author
// asked for.
func rejectsRetired(t *testing.T, raw, field string) {
	t.Helper()
	_, err := LoadOperatorConfig(strings.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
		t.Fatalf("%s: err = %v, want unknown-field error naming it", field, err)
	}
}

// The retired template-vs-serialize ablation.
func TestLoadOperatorConfigRejectsEncapMode(t *testing.T) {
	rejectsRetired(t, `{"slices": [{"id": 1, "encap_mode": "serialize"}]}`, "encap_mode")
}

// The retired dequeue budget, which pepcd never read: the sample config
// as it used to be written.
func TestLoadOperatorConfigRejectsBatchSize(t *testing.T) {
	rejectsRetired(t, strings.Replace(sampleConfig, `"sync_every": 16,`, `"sync_every": 16, "batch_size": 8,`, 1), "batch_size")
}

// The retired handle state layout: every slice runs the one layout.
func TestLoadOperatorConfigRejectsStateLayout(t *testing.T) {
	rejectsRetired(t, `{"slices": [{"id": 1, "state_layout": "handle"}]}`, "state_layout")
}

// The retired two-level table and its primary sizing: every slice runs
// the single table (EXPERIMENTS.md, "Figure 14").
func TestLoadOperatorConfigRejectsTwoLevelTable(t *testing.T) {
	rejectsRetired(t, `{"slices": [{"id": 1, "two_level_table": true}]}`, "two_level_table")
	rejectsRetired(t, `{"slices": [{"id": 1, "primary_size": 64}]}`, "primary_size")
}

func TestBuildNodeFromConfig(t *testing.T) {
	cfg, err := LoadOperatorConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	n, err := BuildNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumSlices() != 2 {
		t.Fatalf("slices = %d", n.NumSlices())
	}
	if n.Slice(0).Config().CoreAddr != pkt.IPv4Addr(172, 16, 0, 10) {
		t.Fatalf("core addr = %s", pkt.FormatIPv4(n.Slice(0).Config().CoreAddr))
	}
	if n.Slice(0).PCEF().Len() != 2 {
		t.Fatalf("slice 0 rules = %d", n.Slice(0).PCEF().Len())
	}
	if n.Slice(1).Config().IoTTEIDCount != 100 {
		t.Fatalf("slice 1 IoT pool = %d", n.Slice(1).Config().IoTTEIDCount)
	}
	if n.Slice(1).Config().SyncEvery != 16 {
		t.Fatalf("slice 1 sync_every=%d", n.Slice(1).Config().SyncEvery)
	}
	// The configured drop rule is live: SMTP is blocked on slice 0.
	res, err := n.AttachUser(0, AttachSpec{IMSI: 1, ENBAddr: 1, DownlinkTEID: 2})
	if err != nil {
		t.Fatal(err)
	}
	n.Slice(0).Data().SyncUpdates()
	pool := pkt.NewPool(2048, 128)
	blocked := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, n.Slice(0).Config().CoreAddr, 25)
	allowedPkt := buildUplink(pool, res.UplinkTEID, res.UEAddr, 1, n.Slice(0).Config().CoreAddr, 80)
	// The drop rule is TCP; our builder emits UDP — rebuild as TCP by
	// patching the inner protocol field.
	patchInnerProto(blocked, pkt.ProtoTCP)
	patchInnerProto(allowedPkt, pkt.ProtoTCP)
	n.Slice(0).Data().ProcessUplinkBatch([]*pkt.Buf{blocked, allowedPkt}, sim.Now())
	if n.Slice(0).Data().Forwarded.Load() != 1 || n.Slice(0).Data().Dropped.Load() != 1 {
		t.Fatalf("forwarded=%d dropped=%d", n.Slice(0).Data().Forwarded.Load(), n.Slice(0).Data().Dropped.Load())
	}
	drainEgress(n.Slice(0))
	// IoT pool on slice 2 hands out TEIDs.
	if _, ok := n.Slice(1).Control().AllocateIoT(); !ok {
		t.Fatal("configured IoT pool empty")
	}
}

// patchInnerProto rewrites the inner IP protocol of an encapsulated
// uplink packet (test helper; checksums are not verified by the pipeline).
func patchInnerProto(b *pkt.Buf, proto uint8) {
	off := pkt.IPv4HeaderLen + pkt.UDPHeaderLen + 8 // outer + GTP-U
	b.Bytes()[off+9] = proto
}

func TestParseHelpers(t *testing.T) {
	if _, err := parseIPv4("999.0.0.1"); err == nil {
		t.Fatal("bad octet accepted")
	}
	if _, err := parseIPv4("junk"); err == nil {
		t.Fatal("junk accepted")
	}
	if addr, err := parseIPv4("172.16.0.10"); err != nil || addr != pkt.IPv4Addr(172, 16, 0, 10) {
		t.Fatalf("ipv4: %v %v", addr, err)
	}
	addr, bits, err := parseCIDR("10.1.0.0/16")
	if err != nil || addr != pkt.IPv4Addr(10, 1, 0, 0) || bits != 16 {
		t.Fatalf("cidr: %v %d %v", addr, bits, err)
	}
}
