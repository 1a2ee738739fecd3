package core

import (
	"strings"
	"testing"

	"jasworkload/internal/mem"
)

// TestSweepExpand: a 2x3 grid expands in odometer order with canonical
// cell configs and per-cell labels.
func TestSweepExpand(t *testing.T) {
	s := Sweep{
		Base: DefaultRunConfig(ScaleQuick),
		Axes: []Axis{
			{Param: "heap_page", Values: []any{"4K", "16M"}},
			{Param: "detail_frac", Values: []any{0.01, 0.02, 0.03}},
		},
	}
	cells, err := s.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	if cells[0].Label != "heap_page=4K detail_frac=0.01" {
		t.Errorf("cell 0 label = %q", cells[0].Label)
	}
	if cells[5].Cfg.HeapPageSize != mem.Page16M || cells[5].Cfg.DetailFrac != 0.03 {
		t.Errorf("cell 5 config = %+v", cells[5].Cfg)
	}
	// Cells are canonical: durations resolved from the scale defaults.
	if cells[0].Cfg.DurationMS == 0 {
		t.Error("cell config not canonicalized")
	}
	// One page-size axis over a 16M-multiple heap needs a single
	// request-level simulation for all six cells.
	if n := DistinctRequestKeys(cells); n != 1 {
		t.Errorf("distinct request keys = %d, want 1", n)
	}
}

// TestSweepExpandDedup: grid points that canonicalize identically fold
// onto one cell, recording the folded labels as aliases.
func TestSweepExpandDedup(t *testing.T) {
	base := DefaultRunConfig(ScaleQuick)
	s := Sweep{
		Base: base,
		Axes: []Axis{
			// quick's default detail fraction is 0.02, so the explicit 0.02
			// canonicalizes onto the same cell as another explicit 0.02 —
			// here via equivalent spellings of the page size.
			{Param: "heap_page", Values: []any{"4K", "4k", "16M"}},
		},
	}
	cells, err := s.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2 (4K/4k folded)", len(cells))
	}
	if len(cells[0].Aliases) != 1 || cells[0].Aliases[0] != "heap_page=4k" {
		t.Errorf("cell 0 aliases = %v, want [heap_page=4k]", cells[0].Aliases)
	}
}

// TestSweepExpandValidation covers the rejection paths: empty grids,
// unknown or duplicate parameters, bad values, overflowing the cap, and a
// ramp swept past the duration.
func TestSweepExpandValidation(t *testing.T) {
	base := DefaultRunConfig(ScaleQuick)
	cases := []struct {
		name string
		axes []Axis
		cap  int
		want string
	}{
		{"no axes", nil, 0, "no axes"},
		{"unknown param", []Axis{{Param: "heap_gb", Values: []any{1}}}, 0, "unknown parameter"},
		{"duplicate param", []Axis{
			{Param: "seed", Values: []any{1}},
			{Param: "seed", Values: []any{2}},
		}, 0, "duplicate axis"},
		{"empty values", []Axis{{Param: "seed", Values: nil}}, 0, "no values"},
		{"cap", []Axis{
			{Param: "seed", Values: []any{1, 2, 3}},
			{Param: "ir", Values: []any{10, 20, 30}},
		}, 8, "more than 8 cells"},
		{"bad page", []Axis{{Param: "heap_page", Values: []any{"2M"}}}, 0, `want "4K" or "16M"`},
		{"fractional ir", []Axis{{Param: "ir", Values: []any{1.5}}}, 0, "positive integer"},
		{"detail frac range", []Axis{{Param: "detail_frac", Values: []any{1.5}}}, 0, "fraction in (0,1]"},
		{"unknown workload", []Axis{{Param: "workload", Values: []any{"nope"}}}, 0, "nope"},
		{"ramp past duration", []Axis{{Param: "ramp_ms", Values: []any{999_999_999}}}, 0, "below duration_ms"},
	}
	for _, tc := range cases {
		_, err := Sweep{Base: base, Axes: tc.axes}.Expand(tc.cap)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSweepDistinctRequestKeys: a heap axis keeps one request-level run
// per size, and a crossed detail axis adds none.
func TestSweepDistinctRequestKeys(t *testing.T) {
	base := DefaultRunConfig(ScaleQuick)
	base.BaselineCacheBytes = 96 << 20 // pinned, so sizes don't re-derive it
	s := Sweep{
		Base: base,
		Axes: []Axis{
			{Param: "heap_mb", Values: []any{128, 192, 256}},
			{Param: "detail_frac", Values: []any{0.01, 0.02}},
		},
	}
	cells, err := s.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	if n := DistinctRequestKeys(cells); n != 3 {
		t.Errorf("distinct request keys = %d, want 3 (one per heap size)", n)
	}
}
