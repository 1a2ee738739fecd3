// Package core is the paper's actual contribution rebuilt as a library:
// the characterization pipeline. It configures the simulated SUT, runs the
// workload with HPM sampling, and regenerates every figure and table of the
// paper — throughput (Fig 2), GC behaviour (Fig 3), the flat profile
// (Fig 4), CPI/speculation/L1 (Fig 5), branch prediction (Fig 6),
// translation (Fig 7 + the large-page ablation), the L1D cache (Fig 8),
// data sourcing (Fig 9), locking/SYNC costs (Section 4.2.4) and the CPI
// correlation analysis (Fig 10).
package core

import (
	"context"
	"fmt"

	"jasworkload/internal/hpm"
	"jasworkload/internal/mem"
	"jasworkload/internal/server"
	"jasworkload/internal/sim"
	"jasworkload/internal/workload"

	// Register every shipped workload pack; the jas2004 and trade6 packs
	// come in transitively through internal/server.
	_ "jasworkload/internal/workload/packs"
)

// Scale selects how closely a run matches the paper's dimensions versus a
// fast smoke configuration.
type Scale int

// Scales.
const (
	// ScaleQuick: small universe, short run — seconds of wall time. Used by
	// tests; trends hold, absolute magnitudes are noisier.
	ScaleQuick Scale = iota
	// ScaleStandard: the paper's configuration (IR40, 1 GB heap, 8500
	// methods) over a compressed steady-state interval.
	ScaleStandard
	// ScaleFull: the paper's 60-minute run shape (5 min ramp included).
	ScaleFull
)

// RunConfig parameterizes one experiment run.
type RunConfig struct {
	IR           int
	Scale        Scale
	Seed         int64
	HeapBytes    uint64
	HeapPageSize mem.PageSize
	// BaselineCacheBytes pins the long-lived in-heap state (0 = auto-scale
	// with the heap). Fix it when sweeping heap sizes so the live set
	// stays constant, as in the heapsweep example.
	BaselineCacheBytes uint64

	// Workload names the registered workload pack driving the run ("" =
	// the default jas2004 pack). It is part of the canonical config, so
	// artifacts, job IDs, and reports key on it.
	Workload string

	// Arrival is the loadgen spec as JSON ("" = the legacy steady Poisson
	// driver loop, byte-identical to the pre-loadgen engine). Stored as a
	// string so RunConfig stays comparable (it keys the run store);
	// canonical() normalizes it to loadgen's canonical form, so the spec
	// participates in artifact identity, job IDs, and the RequestKey —
	// distinct load shapes never coalesce, while page-size/detail-frac
	// sharing still applies within one shape.
	Arrival string

	// Overrides (0 = per-scale default).
	DurationMS float64
	RampMS     float64
	DetailFrac float64
}

// DefaultRunConfig returns the paper's configuration at the given scale.
func DefaultRunConfig(scale Scale) RunConfig {
	cfg := RunConfig{Scale: scale, Seed: 1, HeapPageSize: mem.Page16M}
	switch scale {
	case ScaleQuick:
		cfg.IR = 30
		cfg.HeapBytes = 256 << 20
	default:
		cfg.IR = 40
		cfg.HeapBytes = 1 << 30
	}
	return cfg
}

// durations returns (duration, ramp) for the run.
func (c RunConfig) durations() (float64, float64) {
	d, r := c.DurationMS, c.RampMS
	if d == 0 {
		switch c.Scale {
		case ScaleQuick:
			d = 120_000
		case ScaleStandard:
			d = 9 * 60_000
		default:
			d = 60 * 60_000
		}
	}
	if r == 0 {
		switch c.Scale {
		case ScaleQuick:
			r = 20_000
		default:
			r = 5 * 60_000
		}
	}
	return d, r
}

// detail returns the instruction-sampling fraction for detail runs.
func (c RunConfig) detail() float64 {
	if c.DetailFrac != 0 {
		return c.DetailFrac
	}
	if c.Scale == ScaleQuick {
		return 0.02
	}
	return 0.015
}

// workload resolves the run's workload pack against the registry.
func (c RunConfig) workload() (workload.Workload, error) {
	return workload.Get(c.Workload)
}

// buildSUT assembles the SUT per the run config.
func (c RunConfig) buildSUT() (*sim.SUT, error) {
	w, err := c.workload()
	if err != nil {
		return nil, err
	}
	scfg := sim.DefaultSUTConfig(c.IR)
	scfg.Seed = c.Seed
	scfg.HeapBytes = c.HeapBytes
	scfg.HeapPageSize = c.HeapPageSize
	scfg.BaselineCacheBytes = c.BaselineCacheBytes
	scfg.App = server.AppFor(w)
	// Pack-specific method-profile skew first, then the quick-scale
	// universe shrink, so the default pack stays byte-identical.
	scfg.Profile = w.TuneProfile(scfg.Profile)
	if c.Scale == ScaleQuick {
		scfg.Profile.NumMethods = 850
		scfg.Profile.WarmSet = 60
	}
	return sim.BuildSUT(scfg)
}

// newEngine builds the engine for the run; detailFrac 0 means request-level
// only.
func (c RunConfig) newEngine(sut *sim.SUT, detailFrac float64) (*sim.Engine, error) {
	ecfg := sim.DefaultEngineConfig()
	ecfg.Seed = c.Seed
	ecfg.DurationMS, ecfg.RampMS = c.durations()
	ecfg.DetailFrac = detailFrac
	ecfg.Arrival = c.Arrival
	return sim.NewEngine(ecfg, sut)
}

// detailRun builds SUT+engine with the named HPM groups attached and runs
// to completion (or until ctx cancels it mid-window). Like the paper's
// methodology, every group carries cycles and completed instructions so
// each event can be correlated against the CPI of its own group's samples.
func (c RunConfig) detailRun(ctx context.Context, winFn sim.WindowFunc, groups ...string) (*sim.SUT, *sim.Engine, map[string]*hpm.Monitor, error) {
	sut, err := c.buildSUT()
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := c.newEngine(sut, c.detail())
	if err != nil {
		return nil, nil, nil, err
	}
	eng.SetWindowFunc(winFn)
	mons := make(map[string]*hpm.Monitor, len(groups))
	for _, name := range groups {
		g, ok := hpm.GroupByName(hpm.StandardGroups(), name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("core: unknown HPM group %q", name)
		}
		m, err := hpm.NewMonitor(eng.Source(), g, 1000)
		if err != nil {
			return nil, nil, nil, err
		}
		eng.AttachMonitor(m)
		mons[name] = m
	}
	if _, err := eng.RunContext(ctx); err != nil {
		return nil, nil, nil, err
	}
	return sut, eng, mons, nil
}

// steadyStart returns the first steady-state window index.
func steadyStart(c RunConfig) int {
	_, ramp := c.durations()
	return int(ramp / 1000)
}
