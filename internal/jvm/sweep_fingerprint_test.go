package jvm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"jasworkload/internal/core"
)

// sweepFingerprint is the SHA-256 of the Figure 2-4 views of every cell of
// the heap-size sweep below, in Sweep.Expand order. Every golden report
// uses a 256 MB heap, so without this pin a heap change could move the
// figures of the 128-768 MB cells with no test failing. A -race build
// checks only the two 128 MB cells, the busiest collectors, against
// sweepFingerprint128.
const (
	sweepFingerprint    = "9f8a3b2b9faaf25653b0311eb90cbbf85b7dae192ed3f3e4255b854a912dd609"
	sweepFingerprint128 = "e366ca7610fb69deecd6ec7fb92dc505098b636209417209c74a8097425a2536"
)

// TestHeapSweepFingerprint runs the request-level fidelity of a two-pack
// by four-heap sweep (seed 1, the in-heap baseline cache pinned at 96 MB,
// as in the reqlevel-grid benchmark workload and examples/heapsweep) and
// checks the rendered Figures 2-4 hash to the pinned value.
func TestHeapSweepFingerprint(t *testing.T) {
	base := core.DefaultRunConfig(core.ScaleQuick)
	base.Seed = 1
	base.BaselineCacheBytes = 96 << 20
	cells, err := core.Sweep{Base: base, Axes: []core.Axis{
		{Param: "workload", Values: []any{"jas2004", "dataanalytics"}},
		{Param: "heap_mb", Values: []any{768, 384, 192, 128}},
	}}.Expand(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("sweep expanded to %d cells, want 8", len(cells))
	}
	want := sweepFingerprint
	if raceEnabled {
		want = sweepFingerprint128
	}
	h := sha256.New()
	for _, c := range cells {
		if raceEnabled && c.Cfg.HeapBytes != 128<<20 {
			continue
		}
		run, err := core.ForConfig(c.Cfg).RequestLevel()
		if err != nil {
			t.Fatalf("%s: %v", c.Label, err)
		}
		fmt.Fprint(h, run.Fig2().String()+run.Fig3().String()+run.Fig4().String())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("sweep figures hash to %s, want %s", got, want)
	}
}
