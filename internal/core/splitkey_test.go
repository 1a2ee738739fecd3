package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"jasworkload/internal/mem"
)

// splitCfg is a reduced quick config for the split-key tests, with
// durations distinct from both testCfg and artifactCfg so these tests
// never collide with other tests' cached runs.
func splitCfg() RunConfig {
	cfg := DefaultRunConfig(ScaleQuick)
	cfg.DurationMS = 30_000
	cfg.RampMS = 10_000
	return cfg
}

// TestRequestKeyDerivation pins which knobs the request-level key ignores
// (page size, detail fraction — via the effective heap capacity) and which
// it must keep (seed, IR, raw heap bytes — the SUT derives the auto
// baseline cache from the unrounded value).
func TestRequestKeyDerivation(t *testing.T) {
	base := splitCfg() // 256MB heap (a 16M multiple), Page16M

	paged := base
	paged.HeapPageSize = mem.Page4K
	if base.RequestKey() != paged.RequestKey() {
		t.Error("page size alone changed the RequestKey (16M-multiple heap)")
	}

	sampled := base
	sampled.DetailFrac = 0.01
	if base.RequestKey() != sampled.RequestKey() {
		t.Error("detail fraction changed the RequestKey")
	}

	seeded := base
	seeded.Seed = base.Seed + 1
	if base.RequestKey() == seeded.RequestKey() {
		t.Error("seed did not change the RequestKey")
	}

	// 250MB is not a 16M multiple: with 16M pages the effective capacity
	// rounds to 256MB, with 4K pages it stays 250MB — different
	// request-level behaviour, so the keys must differ.
	odd16 := base
	odd16.HeapBytes = 250 << 20
	odd4 := odd16
	odd4.HeapPageSize = mem.Page4K
	if odd16.RequestKey() == odd4.RequestKey() {
		t.Error("page size must change the RequestKey for a non-multiple heap (capacity differs)")
	}

	// Same 256MB capacity, but the raw heap bytes differ — and with them
	// the auto-derived baseline cache — so no sharing.
	if odd16.RequestKey() == base.RequestKey() {
		t.Error("raw heap bytes must stay in the RequestKey (auto baseline cache)")
	}
}

// TestSplitKeyEquivalence: for configs differing only in detail-only
// knobs, the full report is byte-identical whether the request-level run
// is shared or private — only the simulation count changes (1 shared vs
// one per config). The private leg flushes the run store before each
// config, so no config can adopt another's request-level cell.
func TestSplitKeyEquivalence(t *testing.T) {
	base := splitCfg()
	paged := base
	paged.HeapPageSize = mem.Page4K
	sampled := base
	sampled.DetailFrac = 0.01
	cfgs := []RunConfig{base, paged, sampled}

	run := func(private bool) ([]string, int) {
		Flush()
		resetSimStats()
		outs := make([]string, len(cfgs))
		for i, c := range cfgs {
			if private {
				Flush()
			}
			rep, err := BuildReport(c)
			if err != nil {
				t.Fatalf("BuildReport(private=%v, cfg %d): %v", private, i, err)
			}
			outs[i] = rep.Markdown()
		}
		return outs, simCount("request-level")
	}

	shared, sharedSims := run(false)
	private, privateSims := run(true)
	defer Flush() // drop runs cached under reduced durations

	for i := range cfgs {
		if shared[i] != private[i] {
			t.Errorf("config %d: report differs between shared and private request-level runs", i)
		}
	}
	if sharedSims != 1 {
		t.Errorf("shared request-level simulations = %d, want 1", sharedSims)
	}
	if privateSims != len(cfgs) {
		t.Errorf("private request-level simulations = %d, want %d", privateSims, len(cfgs))
	}
}

// TestDropKeepsSharedRequestLevelCell: dropping one of two artifacts that
// share a request-level cell must not orphan (or re-run) the cell the
// survivor still points at; dropping the last reference removes it.
func TestDropKeepsSharedRequestLevelCell(t *testing.T) {
	Flush()
	resetSimStats()
	base := splitCfg()
	base.Seed = 424_242
	paged := base
	paged.HeapPageSize = mem.Page4K

	a, b := ForConfig(base), ForConfig(paged)
	if a == b {
		t.Fatal("distinct canonical configs share an artifact")
	}
	r1, err := a.RequestLevel()
	if err != nil {
		t.Fatal(err)
	}
	if !Drop(a) {
		t.Fatal("drop of a cached artifact reported false")
	}
	// The survivor still holds the cell: no orphan, no re-simulation.
	r2, err := b.RequestLevel()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("surviving artifact lost the shared request-level run")
	}
	if n := simCount("request-level"); n != 1 {
		t.Fatalf("request-level simulations after partial drop = %d, want 1", n)
	}
	// Even a fresh artifact for the dropped config re-adopts the live cell.
	c := ForConfig(base)
	if r3, err := c.RequestLevel(); err != nil || r3 != r1 {
		t.Fatalf("re-created artifact did not adopt the live cell (err %v)", err)
	}
	Drop(c)
	if !Drop(b) {
		t.Fatal("drop of the surviving artifact reported false")
	}
	// Last reference gone: the cell is evicted and the next request
	// re-simulates.
	d := ForConfig(paged)
	if _, err := d.RequestLevel(); err != nil {
		t.Fatal(err)
	}
	if n := simCount("request-level"); n != 2 {
		t.Fatalf("request-level simulations after full drop = %d, want 2", n)
	}
	Drop(d)
}

// TestRequestLevelCancelNotSticky: a request-level attempt aborted by its
// only waiter's context does not poison the shared cell — the next caller
// re-executes and succeeds. (Detail memos cache cancellation errors and
// need Drop; the request-level cell must not, because it may be shared by
// configs the canceller never knew about.)
func TestRequestLevelCancelNotSticky(t *testing.T) {
	Flush()
	resetSimStats()
	cfg := splitCfg()
	cfg.Seed = 900_001
	a := ForConfig(cfg)
	defer func() {
		Drop(a)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := a.RequestLevelContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
	}
	if _, err := a.RequestLevelContext(context.Background()); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if n := simCount("request-level"); n != 2 {
		t.Fatalf("request-level simulations = %d, want 2 (aborted + retry)", n)
	}
}

// TestRequestLevelSharedCancellationSurvives: with two callers waiting on
// one shared cell, cancelling one caller's context returns its error but
// leaves the run alive for the other — the run aborts only when the last
// waiter is gone.
func TestRequestLevelSharedCancellationSurvives(t *testing.T) {
	Flush()
	resetSimStats()
	base := splitCfg()
	base.Seed = 900_002
	paged := base
	paged.HeapPageSize = mem.Page4K
	a, b := ForConfig(base), ForConfig(paged)
	defer func() {
		Drop(a)
		Drop(b)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := a.RequestLevelContext(ctx)
		errA <- err
	}()
	okB := make(chan error, 1)
	go func() {
		_, err := b.RequestLevelContext(context.Background())
		okB <- err
	}()
	time.Sleep(50 * time.Millisecond) // let both register as waiters
	cancel()

	if err := <-errA; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller returned %v", err)
	}
	if err := <-okB; err != nil {
		t.Fatalf("surviving caller's run failed: %v", err)
	}
	if n := simCount("request-level"); n != 1 {
		t.Fatalf("request-level simulations = %d, want 1 (run survived the cancel)", n)
	}
}
