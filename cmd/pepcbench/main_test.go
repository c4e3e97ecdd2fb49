package main

import (
	"strings"
	"testing"
)

// The flags retired with the BENCH_*.json ratchets and the ablation
// knobs must fail with the flag package's standard error, not be
// silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, f := range []string{"-json", "-fig5", "-fig6", "-fig7", "-fig8", "-sockioq", "-clustermode", "-fig14"} {
		var stderr strings.Builder
		_, _, err := parseArgs([]string{"-fig", "7", f, "x"}, &stderr)
		if err == nil || !strings.Contains(stderr.String(), "flag provided but not defined: "+f) {
			t.Errorf("%s: err=%v stderr=%q", f, err, stderr.String())
		}
	}
}

func TestLanesFlag(t *testing.T) {
	var stderr strings.Builder
	names, sc, err := parseArgs([]string{"-fig", "7", "-lanes", "sum"}, &stderr)
	if err != nil || len(names) != 1 || names[0] != "fig7" || sc.Lanes != "sum" {
		t.Fatalf("names=%v lanes=%q err=%v", names, sc.Lanes, err)
	}
	if _, _, err := parseArgs([]string{"-fig", "7", "-lanes", "both"}, &stderr); err == nil ||
		!strings.Contains(stderr.String(), "-lanes must be auto, parallel or sum") {
		t.Fatalf("bad -lanes value: err=%v stderr=%q", err, stderr.String())
	}
}
