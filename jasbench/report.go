package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/sim"
	"jasworkload/internal/workload"
)

// goldenPath is the quick-scale seed-1 report, relative to the checkout
// root; report-quick at seed 1 must reproduce it byte for byte.
const goldenPath = "testdata/golden_report_quick.md"

// windowTimer turns an artifact's window callbacks into spans: each span
// runs from the previous callback of the same run kind (or the start of
// the phase) to this one, so its duration is the host time one simulated
// window took.
type windowTimer struct {
	tr     *Tracer
	req    string
	mu     sync.Mutex
	last   map[string]time.Time
	parent map[string]int32
}

func newWindowTimer(tr *Tracer, req string) *windowTimer {
	return &windowTimer{tr: tr, req: req, last: map[string]time.Time{}, parent: map[string]int32{}}
}

// begin marks the start of the phase whose windows come as kind.
func (w *windowTimer) begin(kind string, parent int32) {
	w.mu.Lock()
	w.last[kind], w.parent[kind] = time.Now(), parent
	w.mu.Unlock()
}

func (w *windowTimer) observe(kind string, _ sim.WindowStats) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if last, ok := w.last[kind]; ok {
		w.tr.Add("core.window."+kind, w.parent[kind], w.req, last, now)
	}
	w.last[kind] = now
}

// simDelta is the number of simulations of each kind since before.
func simDelta(before map[string]int) (rl, detail, variant int) {
	after := core.SimCounts()
	return after["request-level"] - before["request-level"],
		after["detail"] - before["detail"],
		after["variant"] - before["variant"]
}

// opSample is one measured operation.
type opSample struct {
	wall, cpu float64
}

// measure runs fn after a collection, so one operation's garbage does not
// land on the next, and returns its wall and process CPU time.
func measure(fn func() error) (opSample, error) {
	runtime.GC()
	cpu0 := processCPU()
	t0 := time.Now()
	err := fn()
	return opSample{wall: time.Since(t0).Seconds(), cpu: processCPU() - cpu0}, err
}

func runReportQuick(b *bench) error {
	var cfg core.RunConfig
	var golden string
	err := b.setup(func(bool) error {
		if _, err := workload.Get(""); err != nil {
			return err
		}
		g, err := os.ReadFile(goldenPath)
		if err != nil {
			return err
		}
		golden = string(g)
		cfg = core.DefaultRunConfig(core.ScaleQuick)
		cfg.Seed = b.seed
		core.Flush()
		return nil
	})
	if err != nil {
		return err
	}

	var first string
	var firstSims [3]int
	var tracedWall []float64
	var hitRatio float64
	minReps := 3
	if b.tr != nil {
		minReps = 4
	}
	b.loop(minReps, func(rep int) error {
		// The traced run alternates untraced and traced reports, so the
		// difference between the two medians is the tracing overhead.
		traced := b.tr != nil && rep%2 == 1
		core.Flush()
		sims0 := core.SimCounts()
		hits0, misses0 := core.CacheStats()
		var md string
		s, err := measure(func() error {
			var err error
			if traced {
				md, err = tracedReport(b.tr, cfg, fmt.Sprintf("report-%d", rep))
				return err
			}
			r, err := core.BuildReport(cfg)
			if err == nil {
				md = r.Markdown()
			}
			return err
		})
		if err != nil {
			return err
		}
		rl, det, variant := simDelta(sims0)
		hits1, misses1 := core.CacheStats()
		if traced {
			tracedWall = append(tracedWall, s.wall)
			hitRatio = safeDiv(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
		} else {
			b.opWall = append(b.opWall, s.wall)
			b.opCPU = append(b.opCPU, s.cpu)
		}
		switch {
		case b.seed == 1 && md != golden:
			return fmt.Errorf("report differs from %s", goldenPath)
		case rep == 0:
			first, firstSims = md, [3]int{rl, det, variant}
		case md != first:
			return fmt.Errorf("report not byte-identical to the first repetition")
		case [3]int{rl, det, variant} != firstSims:
			return fmt.Errorf("simulations %v, first repetition ran %v", [3]int{rl, det, variant}, firstSims)
		}
		if rl != 1 || det != 1 {
			return fmt.Errorf("cold report ran %d request-level and %d detail simulations, want 1 and 1", rl, det)
		}
		return nil
	})
	b.setNamed("report_s", "s", b.opWall)
	b.setNamed("report_cpu_s", "s", b.opCPU)
	if b.tr == nil {
		return nil
	}

	b.setCoreLayers(tracedWall)
	b.setLayer("core.sims_rl", "count", float64(firstSims[0]), 1)
	b.setLayer("core.sims_detail", "count", float64(firstSims[1]), 1)
	b.setLayer("core.sims_variant", "count", float64(firstSims[2]), 1)
	b.setLayer("core.cache_hit_ratio", "ratio", hitRatio, 1)

	return b.layerReplay([]core.RunConfig{cfg.Canonical()}, true)
}

// tracedReport builds the report from the same core entry points
// BuildReport uses, one span per phase: the three simulations
// concurrently on the core scheduler, each figure view, the report
// assembly (BuildReport over the now-cached artifact) and the Markdown
// rendering.
func tracedReport(tr *Tracer, cfg core.RunConfig, req string) (string, error) {
	root := tr.Begin("report", 0, req)
	defer tr.End(root)
	art := core.ForConfig(cfg)
	win := newWindowTimer(tr, req)
	art.SetWindowFunc(win.observe)
	defer art.SetWindowFunc(nil)

	var rl *core.RequestLevelRun
	var d *core.DetailRun
	g := core.NewGroup(core.Parallelism())
	g.Go(func() error {
		id := tr.Begin("core.request_level", root, req)
		defer tr.End(id)
		win.begin("request-level", id)
		var err error
		rl, err = art.RequestLevel()
		return err
	})
	g.Go(func() error {
		id := tr.Begin("core.detail", root, req)
		defer tr.End(id)
		win.begin("detail", id)
		var err error
		d, err = art.Detail()
		return err
	})
	g.Go(func() error {
		id := tr.Begin("core.crosschecks", root, req)
		defer tr.End(id)
		_, err := art.CrossChecks()
		return err
	})
	if err := g.Wait(); err != nil {
		return "", err
	}

	views := []func() error{
		func() error { rl.Fig2(); return nil },
		func() error { rl.Fig3(); return nil },
		func() error { rl.Fig4(); return nil },
		func() error { _, err := d.Fig5(); return err },
		func() error { _, err := d.Fig6(); return err },
		func() error { _, err := d.Fig7(); return err },
		func() error { _, err := d.Fig8(); return err },
		func() error { _, err := d.Fig9(); return err },
		func() error { _, err := d.Locking(); return err },
		func() error { _, err := d.Fig10(); return err },
	}
	for _, v := range views {
		id := tr.Begin("core.views", root, req)
		err := v()
		tr.End(id)
		if err != nil {
			return "", err
		}
	}

	id := tr.Begin("core.assembly", root, req)
	rep, err := core.BuildReport(cfg)
	tr.End(id)
	if err != nil {
		return "", err
	}
	id = tr.Begin("core.render", root, req)
	md := rep.Markdown()
	tr.End(id)
	return md, nil
}
