package main

import (
	"fmt"

	"jasworkload/internal/core"
)

// gridSweep is the reqlevel-grid sweep: two packs by four heap sizes at
// quick scale, with the in-heap baseline cache pinned so the live set stays
// constant across heap sizes (as in examples/heapsweep).
func gridSweep(seed int64) core.Sweep {
	base := core.DefaultRunConfig(core.ScaleQuick)
	base.Seed = seed
	base.BaselineCacheBytes = 96 << 20
	return core.Sweep{Base: base, Axes: []core.Axis{
		{Param: "workload", Values: []any{"jas2004", "dataanalytics"}},
		{Param: "heap_mb", Values: []any{768, 384, 192, 128}},
	}}
}

const gridCells = 8

func runReqlevelGrid(b *bench) error {
	var cells []core.Cell
	err := b.setup(func(bool) error {
		var err error
		cells, err = gridSweep(b.seed).Expand(64)
		if err == nil && len(cells) != gridCells {
			err = fmt.Errorf("grid expanded to %d cells, want %d", len(cells), gridCells)
		}
		core.Flush()
		return err
	})
	if err != nil {
		return err
	}

	var first []string
	var tracedWall []float64
	minReps := 3
	if b.tr != nil {
		minReps = 4
	}
	b.loop(minReps, func(rep int) error {
		traced := b.tr != nil && rep%2 == 1
		core.Flush()
		sims0 := core.SimCounts()
		views := make([]string, len(cells))
		s, err := measure(func() error { return runGrid(b.tr, traced, cells, views, rep) })
		if err != nil {
			return err
		}
		if traced {
			tracedWall = append(tracedWall, s.wall)
		} else {
			b.opWall = append(b.opWall, s.wall)
			b.opCPU = append(b.opCPU, s.cpu)
		}
		if rl, det, variant := simDelta(sims0); rl != gridCells || det != 0 || variant != 0 {
			return fmt.Errorf("grid ran %d request-level, %d detail and %d variant simulations, want %d, 0 and 0",
				rl, det, variant, gridCells)
		}
		if rep == 0 {
			first = views
			return nil
		}
		for i := range views {
			if views[i] != first[i] {
				return fmt.Errorf("cell %q: figures differ from the first repetition", cells[i].Label)
			}
		}
		return nil
	})
	b.setNamed("grid_s", "s", b.opWall)
	b.setNamed("grid_cpu_s", "s", b.opCPU)
	if b.tr == nil {
		return nil
	}

	b.setCoreLayers(tracedWall)
	b.setLayer("core.sims_rl", "count", gridCells, 1)

	cfgs := make([]core.RunConfig, len(cells))
	for i, c := range cells {
		cfgs[i] = c.Cfg
	}
	return b.layerReplay(cfgs, false)
}

// runGrid runs the request-level fidelity of every cell, and its
// Figure 2-4 views, on the core scheduler; views[i] receives cell i's
// rendered figures for the determinism check. When traced, each cell's
// run and views carry spans and its windows are timed.
func runGrid(tr *Tracer, traced bool, cells []core.Cell, views []string, rep int) error {
	if !traced {
		tr = nil
	}
	root := tr.Begin("grid", 0, fmt.Sprintf("grid-%d", rep))
	defer tr.End(root)
	g := core.NewGroup(core.Parallelism())
	for i, cell := range cells {
		g.Go(func() error {
			req := fmt.Sprintf("grid-%d/%s", rep, cell.Label)
			art := core.ForConfig(cell.Cfg)
			id := tr.Begin("core.request_level", root, req)
			if tr != nil {
				win := newWindowTimer(tr, req)
				win.begin("request-level", id)
				art.SetWindowFunc(win.observe)
				defer art.SetWindowFunc(nil)
			}
			run, err := art.RequestLevel()
			tr.End(id)
			if err != nil {
				return fmt.Errorf("%s: %w", cell.Label, err)
			}
			id = tr.Begin("core.views", root, req)
			views[i] = run.Fig2().String() + run.Fig3().String() + run.Fig4().String()
			tr.End(id)
			return nil
		})
	}
	return g.Wait()
}
